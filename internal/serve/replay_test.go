package serve

import (
	"testing"

	"loom/internal/checkpoint"
	"loom/internal/graph"
	"loom/internal/query"
	"loom/internal/stream"
)

// record is one replayable operation: a WAL record kind plus, for
// batches, its elements.
type record struct {
	kind  checkpoint.RecordKind
	elems []stream.Element
}

// batchRecords cuts elems into RecordBatch records of size bs.
func batchRecords(elems []stream.Element, bs int) []record {
	var out []record
	for i := 0; i < len(elems); i += bs {
		out = append(out, record{checkpoint.RecordBatch, elems[i:min(i+bs, len(elems))]})
	}
	return out
}

// TestLiveApplyMatchesOpenReplay pins the single ApplyRecord: a record
// sequence applied live (IngestSync / Drain / Checkpoint on a durable
// server) and the same sequence replayed by Open from a hand-built WAL
// must leave identical state — every placement, every statistic, and a
// clean from-scratch verification. Each sequence is replayed from two
// logs: batches as text bodies, the format builds before the
// one-written-format change left in WAL tails (read compatibility), and
// batches as binary frame payloads, the format the server writes now.
func TestLiveApplyMatchesOpenReplay(t *testing.T) {
	g, w, alphabet := testGraph(t, 300, 3, 29)
	inserts := elementsOf(t, g)
	churn, _ := churnStream(inserts, 17)
	drain := record{kind: checkpoint.RecordDrain}
	barrier := record{kind: checkpoint.RecordBarrier}
	splice := func(recs []record, at int, r record) []record {
		out := append([]record(nil), recs[:at]...)
		return append(append(out, r), recs[at:]...)
	}
	ins, ch := batchRecords(inserts, 97), batchRecords(churn, 61)
	cases := []struct {
		name string
		recs []record
	}{
		{"batches", ins},
		{"drain mid-stream", append(splice(ins, len(ins)/2, drain), drain)},
		{"barrier mid-stream", splice(ins, len(ins)/3, barrier)},
		{"removals", ch},
		{"removals with drain and barriers", append(splice(splice(ch, len(ch)/4, barrier), len(ch)/2, drain), barrier)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := persistConfig(w, alphabet, g.NumVertices(), 3)
			cfg.DecaySpan = 500 // exercises the edge stamps under verify

			live, err := Open(cfg, PersistOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer live.Stop()
			for i, r := range tc.recs {
				switch r.kind {
				case checkpoint.RecordBatch:
					err = live.IngestSync(r.elems)
				case checkpoint.RecordDrain:
					err = live.Drain()
				case checkpoint.RecordBarrier:
					err = live.Checkpoint()
				}
				if err != nil {
					t.Fatalf("live op %d (kind %d): %v", i, r.kind, err)
				}
				verify(t, live)
			}

			for _, format := range []checkpoint.RecordKind{checkpoint.RecordBatch, checkpoint.RecordBatchBinary} {
				dir := t.TempDir()
				st, _, err := checkpoint.Open(dir, checkpoint.SyncNone)
				if err != nil {
					t.Fatal(err)
				}
				var enc stream.FrameEncoder
				for _, r := range tc.recs {
					if r.kind == checkpoint.RecordBatch && format == checkpoint.RecordBatchBinary {
						payload, err := enc.AppendPayload(nil, r.elems)
						if err != nil {
							t.Fatal(err)
						}
						_, err = st.AppendBinary(payload)
					} else {
						_, err = st.Append(r.kind, r.elems)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := Open(cfg, PersistOptions{Dir: dir})
				if err != nil {
					t.Fatalf("replay (format %d): %v", format, err)
				}
				if got := re.Stats().Persist.Recover.ReplayedRecords; got != len(tc.recs) {
					t.Fatalf("replayed %d records, want %d", got, len(tc.recs))
				}
				assertSameServing(t, g, re, live)
				re.Stop()
			}
		})
	}
}

// TestReAddAfterVertexRemovalInOneBatchRecovers: a batch may legally add
// an edge, remove one of its endpoints (which takes the edge with it),
// re-add the vertex and add the same edge again. The writer accepts all
// of it, so the one WAL record the batch is logged as must replay — the
// frame decoder's duplicate check must not mistake the second add for a
// repeat.
func TestReAddAfterVertexRemovalInOneBatchRecovers(t *testing.T) {
	cfg := persistConfig(nil, []graph.Label{"a", "b"}, 16, 2)
	dir := t.TempDir()
	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batch := []stream.Element{
		{Kind: stream.VertexElement, V: 1, Label: "a"},
		{Kind: stream.VertexElement, V: 2, Label: "b"},
		{Kind: stream.EdgeElement, V: 1, U: 2},
		{Kind: stream.RemoveVertexElement, V: 1},
		{Kind: stream.VertexElement, V: 1, Label: "a"},
		{Kind: stream.EdgeElement, V: 2, U: 1},
	}
	if err := s.IngestSync(batch); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	verify(t, s)
	want := s.Stats()
	s.Abort()

	re, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Stop()
	verify(t, re)
	got := re.Stats()
	if got.Ingested != want.Ingested || got.Vertices != 2 || got.Edges != 1 {
		t.Fatalf("recovered %d ingested, %d vertices, %d edges; want %d, 2, 1", got.Ingested, got.Vertices, got.Edges, want.Ingested)
	}
}

// TestObservedWorkloadSurvivesRecovery: once a restream has adopted an
// observed workload, the live trie is built from it and every later
// placement is scored against it. The swap snapshot must carry that
// workload, so a crash-recovered server replays its WAL tail against the
// same trie and ends exactly where a never-stopped control does.
func TestObservedWorkloadSurvivesRecovery(t *testing.T) {
	g, w, alphabet := testGraph(t, 600, 3, 13)
	elems := elementsOf(t, g)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 3)
	// An observed workload unlike the static one, so the two tries group
	// the tail differently.
	observed := query.MustNewWorkload(
		query.Query{ID: "obs0", Pattern: graph.Path(alphabet[0], alphabet[1], alphabet[2]), Weight: 5},
		query.Query{ID: "obs1", Pattern: graph.Path(alphabet[3], alphabet[3]), Weight: 2},
	)
	source := func() *query.Workload { return observed }

	dir := t.TempDir()
	durable, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	control, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Stop()

	half := len(elems) / 2
	feedBatches(t, elems[:half], 97, durable, control)
	for _, s := range []*Server{durable, control} {
		s.SetWorkloadSource(source)
		if err := s.TriggerRestream("workload"); err != nil {
			t.Fatalf("restream: %v", err)
		}
		if rep := s.Stats().LastRestream; rep == nil || rep.WorkloadSource != "observed" || rep.Err != "" {
			t.Fatalf("restream report %+v, want an adopted observed-workload swap", rep)
		}
		verify(t, s)
	}
	tail := elems[half : half+(len(elems)-half)/2]
	feedBatches(t, tail, 97, durable, control)
	durable.Abort()

	re, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Stop()
	if ri := re.Stats().Persist.Recover; !ri.SnapshotLoaded || ri.ReplayedElements != len(tail) {
		t.Fatalf("recovery %+v, want the swap snapshot plus a %d-element tail", ri, len(tail))
	}
	assertSameServing(t, g, re, control)

	// And the two keep agreeing on fresh traffic.
	feedBatches(t, elems[half+len(tail):], 97, re, control)
	assertSameServing(t, g, re, control)
}

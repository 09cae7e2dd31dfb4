package serve

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loom/internal/core"
	"loom/internal/gen"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/query"
	"loom/internal/serve/state"
	"loom/internal/stream"
)

// testGraph returns a planted-partition graph and a synthetic workload
// over its alphabet, both deterministic.
func testGraph(t testing.TB, n, k int, seed int64) (*graph.Graph, *query.Workload, []graph.Label) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	alphabet := gen.DefaultAlphabet(4)
	g, err := gen.PlantedPartitionDegrees(n, k, 8, 2, &gen.UniformLabeler{Alphabet: alphabet, Rand: r}, r)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	w, err := query.GenerateWorkload(query.DefaultMix(8), alphabet, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return g, w, alphabet
}

func elementsOf(t testing.TB, g *graph.Graph) []stream.Element {
	t.Helper()
	elems, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return elems
}

// TestServerMatchesBatchRun pins the serving pipeline to the batch
// engine: with drift disabled, ingesting the same element sequence and
// stopping must yield exactly the placements of core.Partitioner.Run.
func TestServerMatchesBatchRun(t *testing.T) {
	g, w, alphabet := testGraph(t, 600, 4, 7)
	elems := elementsOf(t, g)
	ccfg := core.Config{
		Partition:  partition.Config{K: 4, ExpectedVertices: g.NumVertices(), Slack: 1.2, Seed: 1},
		WindowSize: 64,
		Threshold:  0.05,
	}

	trie, err := state.BuildTrie(w, alphabet, 0)
	if err != nil {
		t.Fatalf("trie: %v", err)
	}
	bp, err := core.New(ccfg, trie)
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	want, err := bp.Run(stream.NewSliceSource(elems))
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}

	s, err := New(Config{Core: ccfg, Workload: w, Alphabet: alphabet})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	for i := 0; i < len(elems); i += 97 {
		end := i + 97
		if end > len(elems) {
			end = len(elems)
		}
		if err := s.IngestSync(elems[i:end]); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	s.Stop()

	if got := s.Stats().Assigned; got != want.Len() {
		t.Fatalf("assigned %d, want %d", got, want.Len())
	}
	want.EachVertex(func(v graph.VertexID, p partition.ID) {
		got, ok := s.Where(v)
		if !ok || got != p {
			t.Fatalf("Where(%d) = %v,%v, want %v", v, got, ok, p)
		}
	})
}

func TestWhereRouteDrainStats(t *testing.T) {
	g, w, alphabet := testGraph(t, 200, 2, 3)
	s, err := New(Config{
		Core: core.Config{
			Partition:  partition.Config{K: 2, ExpectedVertices: 200, Slack: 1.2},
			WindowSize: 32,
		},
		Workload: w,
		Alphabet: alphabet,
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer s.Stop()

	if _, ok := s.Where(0); ok {
		t.Fatal("Where on empty server reported a placement")
	}
	if err := s.IngestSync(elementsOf(t, g)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	st := s.Stats()
	if st.Vertices != 200 {
		t.Fatalf("vertices = %d, want 200", st.Vertices)
	}
	if st.PendingWindow == 0 {
		t.Fatal("expected window-resident vertices before drain")
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st = s.Stats()
	if st.Assigned != 200 || st.PendingWindow != 0 {
		t.Fatalf("after drain: assigned=%d pending=%d", st.Assigned, st.PendingWindow)
	}
	if st.ObservedEdges != g.NumEdges() {
		t.Fatalf("observed edges = %d, want %d", st.ObservedEdges, g.NumEdges())
	}
	if cut := partitionCut(t, s, g); cut != st.CutEdges {
		t.Fatalf("incremental cut %d disagrees with recount %d", st.CutEdges, cut)
	}
	sum := 0
	for _, n := range st.Sizes {
		sum += n
	}
	if sum != 200 {
		t.Fatalf("sizes sum to %d, want 200", sum)
	}

	d := s.Route(0, 1, 2, 3, 4, 1<<40)
	if d.Known != 5 || d.Unknown != 1 {
		t.Fatalf("route known=%d unknown=%d", d.Known, d.Unknown)
	}
	if d.Target < 0 || int(d.Target) >= 2 {
		t.Fatalf("route target %v out of range", d.Target)
	}
	if none := s.Route(1 << 41); none.Target != partition.Unassigned {
		t.Fatalf("route of unknown anchors picked %v", none.Target)
	}
}

// partitionCut recomputes the assigned-assigned cut from scratch via Where.
func partitionCut(t testing.TB, s *Server, g *graph.Graph) int {
	t.Helper()
	cut := 0
	g.EachEdge(func(u, v graph.VertexID) bool {
		pu, ok1 := s.Where(u)
		pv, ok2 := s.Where(v)
		if ok1 && ok2 && pu != pv {
			cut++
		}
		return true
	})
	return cut
}

func TestIngestValidation(t *testing.T) {
	s, err := New(Config{
		Core: core.Config{Partition: partition.Config{K: 2, ExpectedVertices: 16}, WindowSize: 4},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer s.Stop()

	good := []stream.Element{
		{Kind: stream.VertexElement, V: 1, Label: "a"},
		{Kind: stream.VertexElement, V: 2, Label: "b"},
		{Kind: stream.EdgeElement, V: 1, U: 2},
	}
	if err := s.IngestSync(good); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	bad := []stream.Element{
		{Kind: stream.VertexElement, V: 1, Label: "a"}, // duplicate vertex
		{Kind: stream.EdgeElement, V: 1, U: 2},         // duplicate edge
		{Kind: stream.EdgeElement, V: 1, U: 99},        // unknown endpoint
		{Kind: stream.EdgeElement, V: 2, U: 2},         // self-loop
		{Kind: stream.VertexElement, V: 3, Label: "a"}, // fine
	}
	err = s.IngestSync(bad)
	if err == nil {
		t.Fatal("expected element errors")
	}
	st := s.Stats()
	if st.Rejected != 4 {
		t.Fatalf("rejected = %d, want 4", st.Rejected)
	}
	if st.Ingested != int64(len(good))+1 {
		t.Fatalf("ingested = %d, want %d", st.Ingested, len(good)+1)
	}
	if st.Vertices != 3 || st.Edges != 1 {
		t.Fatalf("graph %d/%d, want 3/1", st.Vertices, st.Edges)
	}
}

func TestSparseAndNegativeIDs(t *testing.T) {
	s, err := New(Config{
		Core: core.Config{Partition: partition.Config{K: 2, ExpectedVertices: 8}, WindowSize: 1},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer s.Stop()

	ids := []graph.VertexID{-5, 1 << 40, 3, 0}
	var elems []stream.Element
	for _, v := range ids {
		elems = append(elems, stream.Element{Kind: stream.VertexElement, V: v, Label: "a"})
	}
	if err := s.IngestSync(elems); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, v := range ids {
		if p, ok := s.Where(v); !ok || p < 0 || int(p) >= 2 {
			t.Fatalf("Where(%d) = %v,%v", v, p, ok)
		}
	}
}

// TestDriftTriggeredRestream forces the cut trigger and verifies the
// background restream completes, swaps a consistent assignment in, and
// reports a migration plan.
func TestDriftTriggeredRestream(t *testing.T) {
	g, w, alphabet := testGraph(t, 800, 4, 11)
	s, err := New(Config{
		Core: core.Config{
			Partition:  partition.Config{K: 4, ExpectedVertices: g.NumVertices(), Slack: 1.2, Seed: 1},
			WindowSize: 64,
			Threshold:  0.05,
		},
		Workload: w,
		Alphabet: alphabet,
		Drift: DriftConfig{
			MaxCutFraction:   0.001, // any realistic cut trips it
			MinAssigned:      128,
			CooldownAssigned: 1 << 30, // one restream only
			Passes:           2,
			Priority:         partition.PriorityDegree,
			Heuristic:        "ldg",
		},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer s.Stop()

	if err := s.IngestSync(elementsOf(t, g)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.Stats()
		if st.Restreams >= 1 && !st.RestreamLive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restream never completed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := s.Stats()
	if st.LastRestream == nil {
		t.Fatal("no restream report")
	}
	rep := st.LastRestream
	if rep.Trigger != "cut" {
		t.Fatalf("trigger = %q, want cut", rep.Trigger)
	}
	if rep.Err != "" {
		t.Fatalf("restream failed: %s", rep.Err)
	}
	if len(rep.Passes) != 2 {
		t.Fatalf("passes = %d, want 2", len(rep.Passes))
	}
	if rep.Migrated != len(rep.Moves) {
		t.Fatalf("migrated %d != moves %d", rep.Migrated, len(rep.Moves))
	}

	// The swapped-in state must be self-consistent: Export == Where for
	// every vertex, and the published cut matches a recount.
	a, err := s.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	a.EachVertex(func(v graph.VertexID, p partition.ID) {
		got, ok := s.Where(v)
		if !ok || got != p {
			t.Fatalf("Where(%d) = %v,%v, want %v", v, got, ok, p)
		}
	})
	if cut := partitionCut(t, s, g); cut != s.Stats().CutEdges {
		t.Fatalf("cut %d != recount %d", s.Stats().CutEdges, cut)
	}
}

func TestManualRestream(t *testing.T) {
	g, w, alphabet := testGraph(t, 400, 2, 5)
	s, err := New(Config{
		Core: core.Config{
			Partition:  partition.Config{K: 2, ExpectedVertices: g.NumVertices(), Slack: 1.2, Seed: 1},
			WindowSize: 32,
			Threshold:  0.05,
		},
		Workload: w,
		Alphabet: alphabet,
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer s.Stop()

	if err := s.Restream(); err == nil {
		t.Fatal("restream on empty server should fail")
	}
	if err := s.IngestSync(elementsOf(t, g)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	epochBefore := s.Stats().Epoch
	if err := s.Restream(); err != nil {
		t.Fatalf("manual restream: %v", err)
	}
	st := s.Stats()
	if st.Restreams != 1 || st.LastRestream == nil || st.LastRestream.Trigger != "manual" {
		t.Fatalf("restream not adopted: %+v", st)
	}
	if st.Epoch <= epochBefore {
		t.Fatalf("epoch did not advance: %d -> %d", epochBefore, st.Epoch)
	}
	// The swap barrier drains the window: everything is assigned.
	if st.Assigned != g.NumVertices() {
		t.Fatalf("assigned = %d, want %d", st.Assigned, g.NumVertices())
	}
	// Ingest keeps working after a swap.
	more := []stream.Element{
		{Kind: stream.VertexElement, V: 10_000, Label: "a"},
		{Kind: stream.EdgeElement, V: 10_000, U: 0},
	}
	if err := s.IngestSync(more); err != nil {
		t.Fatalf("post-swap ingest: %v", err)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, ok := s.Where(10_000); !ok {
		t.Fatal("post-swap vertex never assigned")
	}
}

func TestStopSemantics(t *testing.T) {
	s, err := New(Config{
		Core: core.Config{Partition: partition.Config{K: 2, ExpectedVertices: 8}, WindowSize: 4},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := s.IngestSync([]stream.Element{{Kind: stream.VertexElement, V: 0, Label: "a"}}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	s.Stop()
	s.Stop() // idempotent

	if _, ok := s.Where(0); !ok {
		t.Fatal("Stop should drain the window; vertex 0 unassigned")
	}
	if err := s.Ingest(nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("Ingest after Stop = %v, want ErrStopped", err)
	}
	if err := s.IngestSync(nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("IngestSync after Stop = %v, want ErrStopped", err)
	}
	if err := s.Restream(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Restream after Stop = %v, want ErrStopped", err)
	}
	if _, err := s.Export(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Export after Stop = %v, want ErrStopped", err)
	}
}

// TestConcurrentIngestWhereRestream is the -race workhorse: one goroutine
// streams a live graph in batches, several readers hammer Where/Route/
// Stats, and tight drift thresholds force restream swaps mid-flight.
func TestConcurrentIngestWhereRestream(t *testing.T) {
	const total = 3000
	alphabet := gen.DefaultAlphabet(4)
	src, err := stream.NewLiveSource(total, 3, func(graph.VertexID) graph.Label { return alphabet[0] }, 42)
	if err != nil {
		t.Fatalf("live source: %v", err)
	}
	w, err := query.GenerateWorkload(query.DefaultMix(6), alphabet, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	s, err := New(Config{
		Core: core.Config{
			Partition:  partition.Config{K: 8, ExpectedVertices: total, Slack: 1.2, Seed: 1},
			WindowSize: 64,
			Threshold:  0.05,
		},
		Workload: w,
		Alphabet: alphabet,
		Mailbox:  8,
		Drift: DriftConfig{
			MaxCutFraction:   0.001,
			MinAssigned:      128,
			CooldownAssigned: 256,
			Heuristic:        "ldg",
		},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				v := graph.VertexID(rng.Intn(total))
				if p, ok := s.Where(v); ok && (p < 0 || int(p) >= 8) {
					t.Errorf("Where(%d) = %d out of range", v, p)
					return
				}
				d := s.Route(v, v+1, v+2)
				if d.Known+d.Unknown != 3 {
					t.Errorf("route counted %d anchors", d.Known+d.Unknown)
					return
				}
				st := s.Stats()
				if st.K != 8 {
					t.Errorf("stats k = %d", st.K)
					return
				}
			}
		}(int64(r))
	}

	batch := make([]stream.Element, 0, 64)
	for {
		el, ok := src.Next()
		if ok {
			batch = append(batch, el)
		}
		if len(batch) == 64 || (!ok && len(batch) > 0) {
			if err := s.Ingest(append([]stream.Element(nil), batch...)); err != nil {
				t.Fatalf("ingest: %v", err)
			}
			batch = batch[:0]
		}
		if !ok {
			break
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Let any in-flight restream land before stopping the readers.
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().RestreamLive && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	s.Stop()

	st := s.Stats()
	if st.Vertices != total {
		t.Fatalf("vertices = %d, want %d", st.Vertices, total)
	}
	if st.Assigned != total {
		t.Fatalf("assigned = %d, want %d", st.Assigned, total)
	}
	if st.Restreams < 1 {
		t.Fatalf("expected at least one drift restream, got %d", st.Restreams)
	}
	sum := 0
	for _, n := range st.Sizes {
		sum += n
	}
	if sum != total {
		t.Fatalf("sizes sum to %d, want %d", sum, total)
	}
}

package serve

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"loom/internal/fault"
	"loom/internal/graph"
	"loom/internal/stream"
	"loom/internal/wire"
)

// encodeFrames renders elems as binary frames of at most per elements
// each, concatenated into one wire stream.
func encodeFrames(t testing.TB, elems []stream.Element, per int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := stream.NewFrameWriter(&buf)
	for i := 0; i < len(elems); i += per {
		end := i + per
		if end > len(elems) {
			end = len(elems)
		}
		if err := fw.WriteBatch(elems[i:end]); err != nil {
			t.Fatalf("encode frame at %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

// feedFrames sends elems to every server in one IngestFrames call per
// batch of size bs — the frame-at-a-time feeding that keeps epochs
// deterministic across servers (one envelope per call, like IngestSync).
func feedFrames(t testing.TB, elems []stream.Element, bs int, servers ...*Server) {
	t.Helper()
	for i := 0; i < len(elems); i += bs {
		end := i + bs
		if end > len(elems) {
			end = len(elems)
		}
		frame := encodeFrames(t, elems[i:end], end-i)
		for _, s := range servers {
			res, err := s.IngestFrames(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("ingest frame at %d: %v", i, err)
			}
			if rerr := res.Err(); rerr != nil {
				t.Fatalf("frame at %d: element errors: %v", i, rerr)
			}
			verify(t, s)
		}
	}
}

// TestBinaryIngestMatchesText feeds the same element stream to a server
// over the text path (IngestSync) and to another over the pipelined
// binary path (one multi-frame IngestFrames stream), and requires
// identical placements and statistics. Epoch is normalized: the binary
// pipeline may coalesce several frames into one writer cycle, which
// changes how often snapshots are published but nothing about their
// final content.
func TestBinaryIngestMatchesText(t *testing.T) {
	g, w, alphabet := testGraph(t, 600, 4, 7)
	elems := elementsOf(t, g)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 4)

	text, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer text.Stop()
	bin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Stop()

	feedBatches(t, elems, 97, text)

	res, err := bin.IngestFrames(bytes.NewReader(encodeFrames(t, elems, 97)))
	if err != nil {
		t.Fatal(err)
	}
	if rerr := res.Err(); rerr != nil {
		t.Fatal(rerr)
	}
	if res.Elements != len(elems) || res.Deduped != 0 {
		t.Fatalf("res = %+v, want %d elements, 0 deduped", res, len(elems))
	}

	st, sb := normalizeStats(text.Stats()), normalizeStats(bin.Stats())
	st.Epoch, sb.Epoch = 0, 0
	if st.Ingested != sb.Ingested || st.Rejected != sb.Rejected ||
		st.Vertices != sb.Vertices || st.Edges != sb.Edges ||
		st.CutEdges != sb.CutEdges || st.ObservedEdges != sb.ObservedEdges {
		t.Fatalf("stats diverge:\ntext %+v\nbin  %+v", st, sb)
	}
	for _, v := range g.Vertices() {
		pt, okt := text.Where(v)
		pb, okb := bin.Where(v)
		if pt != pb || okt != okb {
			t.Fatalf("Where(%d) = %v,%v (text) vs %v,%v (binary)", v, pt, okt, pb, okb)
		}
	}
}

// TestBinaryCrashRecoveryMatchesControl is the binary-ingest twin of
// TestCrashRecoveryMatchesControl: the WAL tail now holds
// RecordBatchBinary records (raw frame payloads), and replaying them
// must reproduce the control server bit-identically.
func TestBinaryCrashRecoveryMatchesControl(t *testing.T) {
	g, w, alphabet := testGraph(t, 600, 4, 7)
	elems := elementsOf(t, g)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 4)
	dir := t.TempDir()

	control, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Stop()
	durable, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	half := len(elems) / 2
	feedFrames(t, elems[:half], 97, control, durable)
	if err := control.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := durable.Drain(); err != nil {
		t.Fatal(err)
	}

	// The raw-payload fast path must actually be in use: every record so
	// far is a fully-accepted, dedup-free binary batch.
	durable.Abort()

	restarted, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer restarted.Stop()
	ri := restarted.Stats().Persist.Recover
	if ri.ReplayedElements != half {
		t.Fatalf("replayed %d elements, want %d", ri.ReplayedElements, half)
	}
	assertSameServing(t, g, restarted, control)

	// Recovery continues to serve binary ingest.
	feedFrames(t, elems[half:], 97, control, restarted)
	assertSameServing(t, g, restarted, control)
}

// TestPoisonedFrameNeverReachesWriter corrupts the middle frame of a
// three-frame stream: IngestFrames must stop with a typed *BadFrameError,
// the first frame's elements are applied and logged, and nothing from the
// poisoned frame or the one after it reaches the writer or the WAL.
func TestPoisonedFrameNeverReachesWriter(t *testing.T) {
	g, w, alphabet := testGraph(t, 120, 2, 3)
	elems := elementsOf(t, g)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 2)
	dir := t.TempDir()
	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	third := len(elems) / 3
	var buf bytes.Buffer
	fw := stream.NewFrameWriter(&buf)
	if err := fw.WriteBatch(elems[:third]); err != nil {
		t.Fatal(err)
	}
	poisonAt := buf.Len()
	if err := fw.WriteBatch(elems[third : 2*third]); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteBatch(elems[2*third:]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[poisonAt+wire.HeaderSize] ^= 0xff // corrupt the 2nd frame's payload

	res, err := s.IngestFrames(bytes.NewReader(data))
	var bad *BadFrameError
	if !errors.As(err, &bad) {
		t.Fatalf("err = %v, want *BadFrameError", err)
	}
	if bad.Frame != 1 {
		t.Fatalf("poisoned frame index %d, want 1", bad.Frame)
	}
	if !errors.Is(err, stream.ErrFrameCRC) {
		t.Fatalf("err = %v, want ErrFrameCRC in chain", err)
	}
	if res.Frames != 1 || res.Elements != third {
		t.Fatalf("res = %+v, want exactly the first frame accepted", res)
	}

	st := s.Stats()
	if st.Ingested != int64(third) || st.Rejected != 0 {
		t.Fatalf("ingested %d rejected %d, want %d and 0", st.Ingested, st.Rejected, third)
	}
	if st.Persist.WALRecords != 1 {
		t.Fatalf("WAL holds %d records, want 1 (only the good frame)", st.Persist.WALRecords)
	}
}

// TestDecodeFailpoints drills the two decode-stage fault points: an
// erroring WireDecode injection poisons the frame (typed refusal, WAL
// and writer untouched), and a stalled worker (ServeDecodeStall with
// latency only) delays but does not corrupt the pipeline.
func TestDecodeFailpoints(t *testing.T) {
	g, w, alphabet := testGraph(t, 120, 2, 3)
	elems := elementsOf(t, g)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 2)
	dir := t.TempDir()
	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	frame := encodeFrames(t, elems, len(elems))

	fault.Enable(fault.NewRegistry(1).FailOnce(fault.WireDecode, nil))
	res, err := s.IngestFrames(bytes.NewReader(frame))
	fault.Disable()
	var bad *BadFrameError
	if !errors.As(err, &bad) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want *BadFrameError wrapping ErrInjected", err)
	}
	if res.Frames != 0 {
		t.Fatalf("res = %+v, want nothing accepted", res)
	}
	st := s.Stats()
	if st.Ingested != 0 || st.Persist.WALRecords != 0 {
		t.Fatalf("poisoned frame leaked: ingested=%d wal=%d", st.Ingested, st.Persist.WALRecords)
	}

	// A latency-only stall injection must leave results intact.
	slept := 0
	fault.Enable(fault.NewRegistry(1).
		Add(fault.ServeDecodeStall, fault.Rule{Count: 1, Injection: fault.Injection{DelayOnly: true, Latency: time.Millisecond}}).
		SetSleep(func(d time.Duration) { slept++ }))
	res, err = s.IngestFrames(bytes.NewReader(frame))
	fault.Disable()
	if err != nil {
		t.Fatalf("stalled ingest failed: %v", err)
	}
	if rerr := res.Err(); rerr != nil {
		t.Fatal(rerr)
	}
	if slept == 0 {
		t.Fatal("stall failpoint never fired")
	}
	if res.Elements != len(elems) {
		t.Fatalf("res = %+v, want %d elements", res, len(elems))
	}
	if got := s.Stats().Ingested; got != int64(len(elems)) {
		t.Fatalf("ingested %d, want %d", got, len(elems))
	}
}

// TestBinaryIngestDedupFallsBackToTextWAL sends a frame containing
// intra-frame duplicates: decode drops them (Deduped > 0), the writer
// accepts the rest, and because the raw payload no longer describes
// exactly the accepted elements the WAL record must be the accepted
// subset re-encoded (the name predates the one written format: the
// fallback used to be a text record) — proven by crash-recovering from it.
func TestBinaryIngestDedupFallsBackToTextWAL(t *testing.T) {
	cfg := persistConfig(nil, []graph.Label{"a", "b"}, 16, 2)
	dir := t.TempDir()
	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	elems := []stream.Element{
		{Kind: stream.VertexElement, V: 1, Label: "a"},
		{Kind: stream.VertexElement, V: 2, Label: "b"},
		{Kind: stream.VertexElement, V: 1, Label: "a"}, // intra-frame dup
		{Kind: stream.EdgeElement, V: 1, U: 2},
		{Kind: stream.EdgeElement, V: 2, U: 1}, // intra-frame dup edge
	}
	res, err := s.IngestFrames(bytes.NewReader(encodeFrames(t, elems, len(elems))))
	if err != nil {
		t.Fatal(err)
	}
	if rerr := res.Err(); rerr != nil {
		t.Fatal(rerr)
	}
	if res.Deduped != 2 || res.Elements != 3 {
		t.Fatalf("res = %+v, want 3 elements with 2 deduped", res)
	}
	if got := s.Stats().Ingested; got != 3 {
		t.Fatalf("ingested %d, want 3", got)
	}
	s.Abort()

	restarted, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover from re-encoded record: %v", err)
	}
	defer restarted.Stop()
	ri := restarted.Stats().Persist.Recover
	if ri.ReplayedElements != 3 {
		t.Fatalf("replayed %d elements, want 3", ri.ReplayedElements)
	}
}

// TestBinaryIngestCrossFrameRejects sends the same vertex in two frames:
// the writer rejects the duplicate (cross-frame dedup is its job), the
// stream keeps going, and the partial batch is logged as its accepted
// subset re-encoded, so recovery replays cleanly.
func TestBinaryIngestCrossFrameRejects(t *testing.T) {
	cfg := persistConfig(nil, []graph.Label{"a", "b"}, 16, 2)
	dir := t.TempDir()
	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	fw := stream.NewFrameWriter(&buf)
	if err := fw.WriteBatch([]stream.Element{
		{Kind: stream.VertexElement, V: 1, Label: "a"},
		{Kind: stream.VertexElement, V: 2, Label: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteBatch([]stream.Element{
		{Kind: stream.VertexElement, V: 1, Label: "a"}, // cross-frame dup
		{Kind: stream.VertexElement, V: 3, Label: "a"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := s.IngestFrames(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("stream terminated: %v", err)
	}
	if res.Frames != 2 {
		t.Fatalf("res = %+v, want both frames processed", res)
	}
	rerr := res.Err()
	if rerr == nil {
		t.Fatal("expected an element rejection for the cross-frame duplicate")
	}
	st := s.Stats()
	if st.Ingested != 3 || st.Rejected != 1 {
		t.Fatalf("ingested %d rejected %d, want 3 and 1", st.Ingested, st.Rejected)
	}
	s.Abort()

	restarted, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer restarted.Stop()
	if got := restarted.Stats().Persist.Recover.ReplayedElements; got != 3 {
		t.Fatalf("replayed %d elements, want 3", got)
	}
}

// TestBinaryIngestWedgeRefusal arms a WAL append failure under binary
// ingest: the failing batch is applied-but-unacknowledged (its error
// carries the injected failure), and the next frame is refused with
// ErrWedged as a stream-terminating error — identical wedge semantics to
// the text path.
func TestBinaryIngestWedgeRefusal(t *testing.T) {
	cfg := persistConfig(nil, []graph.Label{"a", "b"}, 16, 2)
	dir := t.TempDir()
	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	first := []stream.Element{{Kind: stream.VertexElement, V: 1, Label: "a"}}
	second := []stream.Element{{Kind: stream.VertexElement, V: 2, Label: "b"}}

	fault.Enable(fault.NewRegistry(1).FailOnce(fault.WALAppend, fault.ErrNoSpace))
	res, err := s.IngestFrames(bytes.NewReader(encodeFrames(t, first, 1)))
	fault.Disable()
	if err != nil {
		t.Fatalf("stream-terminating error %v; the failed ack belongs in res.Err", err)
	}
	if rerr := res.Err(); !errors.Is(rerr, fault.ErrNoSpace) {
		t.Fatalf("res.Err() = %v, want the injected append failure", rerr)
	}

	_, err = s.IngestFrames(bytes.NewReader(encodeFrames(t, second, 1)))
	if !errors.Is(err, ErrWedged) {
		t.Fatalf("wedged ingest = %v, want ErrWedged", err)
	}

	// A checkpoint re-anchors; binary ingest resumes.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err = s.IngestFrames(bytes.NewReader(encodeFrames(t, second, 1)))
	if err != nil || res.Err() != nil {
		t.Fatalf("post-heal ingest: %v / %v", err, res.Err())
	}
}

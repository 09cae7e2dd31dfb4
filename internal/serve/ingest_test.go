package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
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

// textOf renders elems in the line-oriented text codec, removals
// included.
func textOf(elems []stream.Element) []byte {
	var b bytes.Buffer
	for i := range elems {
		el := &elems[i]
		switch el.Kind {
		case stream.VertexElement:
			fmt.Fprintf(&b, "v %d %s\n", el.V, el.Label)
		case stream.EdgeElement:
			fmt.Fprintf(&b, "e %d %d\n", el.V, el.U)
		case stream.RemoveVertexElement:
			fmt.Fprintf(&b, "rv %d\n", el.V)
		case stream.RemoveEdgeElement:
			fmt.Fprintf(&b, "re %d %d\n", el.V, el.U)
		}
	}
	return b.Bytes()
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
// identical placements and statistics, Epoch included: the writer
// publishes once per batch however the frames queued.
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
	if st.Epoch != sb.Epoch || st.Ingested != sb.Ingested || st.Rejected != sb.Rejected ||
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

// TestPoisonedFrameNeverReachesWriter corrupts one frame of a stream:
// IngestFrames must stop with a typed *BadFrameError naming it, the
// frames before it are applied and logged, and nothing from the poisoned
// frame or any after it reaches the writer or the WAL. The second input
// poisons a frame past the in-flight ring's depth, so earlier frames
// have been settled and their slots reused before the bad one is read.
// The text case puts a malformed line in the middle of the second
// 512-record batch: IngestText applies and logs exactly the records
// before it, in a batch of their own, and nothing after it.
func TestPoisonedFrameNeverReachesWriter(t *testing.T) {
	for _, tc := range []struct {
		name           string
		frames, poison int // binary: frame poison of frames is corrupted
		badLine        int // text: a garbage line goes before element badLine (0 = binary case)
	}{
		{name: "1_of_3", frames: 3, poison: 1},
		{name: "70_of_100", frames: 100, poison: 70},
		{name: "text_line_600", badLine: stream.TextBatchSize + 88},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, w, alphabet := testGraph(t, 120, 2, 3)
			elems := elementsOf(t, g)
			cfg := persistConfig(w, alphabet, g.NumVertices(), 2)
			dir := t.TempDir()
			s, err := Open(cfg, PersistOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Abort()

			var res FrameIngest
			var good, batches int
			if tc.badLine > 0 {
				if len(elems) <= tc.badLine {
					t.Fatalf("%d elements, need more than %d", len(elems), tc.badLine)
				}
				body := append(textOf(elems[:tc.badLine]), "not-a-record\n"...)
				body = append(body, textOf(elems[tc.badLine:])...)
				res, err = s.IngestText(bytes.NewReader(body))
				good, batches = tc.badLine, 2
			} else {
				per := len(elems) / tc.frames
				var buf bytes.Buffer
				fw := stream.NewFrameWriter(&buf)
				poisonAt := 0
				for f := 0; f < tc.frames; f++ {
					end := (f + 1) * per
					if f == tc.frames-1 {
						end = len(elems)
					}
					if f == tc.poison {
						poisonAt = buf.Len()
					}
					if err := fw.WriteBatch(elems[f*per : end]); err != nil {
						t.Fatal(err)
					}
				}
				data := buf.Bytes()
				data[poisonAt+wire.HeaderSize] ^= 0xff // corrupt the frame's payload
				res, err = s.IngestFrames(bytes.NewReader(data))
				if !errors.Is(err, stream.ErrFrameCRC) {
					t.Fatalf("err = %v, want ErrFrameCRC in chain", err)
				}
				good, batches = tc.poison*per, tc.poison
			}
			var bad *BadFrameError
			if !errors.As(err, &bad) {
				t.Fatalf("err = %v, want *BadFrameError", err)
			}
			if bad.Frame != batches {
				t.Fatalf("poisoned batch index %d, want %d", bad.Frame, batches)
			}
			if res.Frames != batches || res.Elements != good || res.Accepted != good || res.Rejected != 0 {
				t.Fatalf("res = %+v, want exactly the %d batches (%d elements) before the poisoned one", res, batches, good)
			}

			st := s.Stats()
			if st.Ingested != int64(good) || st.Rejected != 0 {
				t.Fatalf("ingested %d rejected %d, want %d and 0", st.Ingested, st.Rejected, good)
			}
			if st.Persist.WALRecords != int64(batches) {
				t.Fatalf("WAL holds %d records, want %d (only the good batches)", st.Persist.WALRecords, batches)
			}
			verify(t, s)

			// The log holds exactly the good elements: a recovery replays
			// them and nothing else.
			s.Abort()
			restarted, err := Open(cfg, PersistOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer restarted.Stop()
			if ri := restarted.Stats().Persist.Recover; ri.ReplayedRecords != batches || ri.ReplayedElements != good {
				t.Fatalf("recovery replayed %+v, want %d records of %d elements", ri, batches, good)
			}
		})
	}
}

// TestConcurrentFrameStreams runs two IngestFrames streams at once, on
// disjoint vertex ranges: each stream owns its ring and decoder for its
// whole life, so both are applied in full whatever the interleaving at
// the mailbox. Run under -race, this also checks that no ring or decoder
// is shared between live streams.
func TestConcurrentFrameStreams(t *testing.T) {
	g, w, alphabet := testGraph(t, 400, 2, 5)
	elems := elementsOf(t, g)
	// The second stream is the first shifted past every id the first
	// one uses, so the two never touch the same vertex or edge.
	shift := graph.VertexID(g.NumVertices() + 1)
	for _, e := range elems {
		if e.V >= shift || e.U >= shift {
			t.Fatalf("vertex ids reach %d, past the shift %d", max(e.V, e.U), shift)
		}
	}
	shifted := make([]stream.Element, len(elems))
	for i, e := range elems {
		e.V += shift
		if e.Kind == stream.EdgeElement {
			e.U += shift
		}
		shifted[i] = e
	}
	s, err := New(persistConfig(w, alphabet, 2*g.NumVertices(), 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	// 16-element frames: each stream is several times the ring's depth.
	streams := [][]byte{encodeFrames(t, elems, 16), encodeFrames(t, shifted, 16)}
	results := make([]FrameIngest, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, data := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.IngestFrames(bytes.NewReader(data))
		}()
	}
	wg.Wait()
	for i := range streams {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if err := results[i].Err(); err != nil {
			t.Fatalf("stream %d: element errors: %v", i, err)
		}
		if results[i].Elements != len(elems) {
			t.Fatalf("stream %d: %d elements, want %d", i, results[i].Elements, len(elems))
		}
	}
	if st := s.Stats(); st.Ingested != int64(2*len(elems)) || st.Rejected != 0 {
		t.Fatalf("ingested %d rejected %d, want %d and 0", st.Ingested, st.Rejected, 2*len(elems))
	}
	verify(t, s)
}

// TestConcurrentTextAndFrameCounts runs text and binary streams at once
// on disjoint vertex ranges, each re-sending some of its own vertices so
// the writer rejects them. Every request's accepted and rejected counts
// are the writer's account of that request alone, so they sum exactly to
// the server's ledger and match what each stream must have added,
// whatever the interleaving at the mailbox.
func TestConcurrentTextAndFrameCounts(t *testing.T) {
	g, w, alphabet := testGraph(t, 300, 2, 9)
	elems := elementsOf(t, g)
	shift := graph.VertexID(g.NumVertices() + 1)
	const streams = 4
	s, err := New(persistConfig(w, alphabet, streams*g.NumVertices(), 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	// Stream i is the graph shifted by i*shift, with every 50th vertex
	// sent a second time further down the stream.
	bodies := make([][]byte, streams)
	wantRejected := make([]int, streams)
	for i := range bodies {
		var mine, dups []stream.Element
		for _, e := range elems {
			e.V += graph.VertexID(i) * shift
			if e.Kind == stream.EdgeElement {
				e.U += graph.VertexID(i) * shift
			}
			mine = append(mine, e)
			if e.Kind == stream.VertexElement && e.V%50 == 0 {
				dups = append(dups, e)
			}
			if len(mine)%200 == 0 {
				mine = append(mine, dups...)
				wantRejected[i] += len(dups)
				dups = dups[:0]
			}
		}
		if i%2 == 0 {
			bodies[i] = textOf(mine)
		} else {
			bodies[i] = encodeFrames(t, mine, 64)
		}
	}
	results := make([]FrameIngest, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				results[i], errs[i] = s.IngestText(bytes.NewReader(body))
			} else {
				results[i], errs[i] = s.IngestFrames(bytes.NewReader(body))
			}
		}()
	}
	wg.Wait()
	var accepted, rejected int
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		// Binary decode drops a re-send that lands in its original's
		// frame before the writer sees it.
		if res.Accepted != len(elems) || res.Rejected+res.Deduped != wantRejected[i] || res.Elements != res.Accepted+res.Rejected {
			t.Fatalf("stream %d: %+v, want %d accepted and %d rejected or deduped", i, res, len(elems), wantRejected[i])
		}
		if wantRejected[i] > 0 && res.Err() == nil {
			t.Fatalf("stream %d: rejections reported no error", i)
		}
		accepted += res.Accepted
		rejected += res.Rejected
	}
	if st := s.Stats(); st.Ingested != int64(accepted) || st.Rejected != int64(rejected) {
		t.Fatalf("ledger ingested %d rejected %d, requests say %d and %d", st.Ingested, st.Rejected, accepted, rejected)
	}
	verify(t, s)
}

// TestTextWALMatchesIngestSync feeds one churny text body, with a
// writer-rejected duplicate in it, through IngestText and the same
// elements through IngestSync in 512-element chunks: the two servers
// must write byte-identical WAL segments and publish identical state,
// Stats.Epoch included — one record and one publication per batch,
// however the ring's batches queued at the mailbox.
func TestTextWALMatchesIngestSync(t *testing.T) {
	g, w, alphabet := testGraph(t, 400, 2, 13)
	base := elementsOf(t, g)
	var elems []stream.Element
	dupAt := 0
	for i, e := range base {
		elems = append(elems, e)
		switch {
		case i == 700:
			dupAt = len(elems)
			elems = append(elems, elems[0]) // a duplicate vertex: rejected
		case e.Kind == stream.EdgeElement && i%7 == 0:
			elems = append(elems,
				stream.Element{Kind: stream.RemoveEdgeElement, V: e.V, U: e.U}, e)
		}
	}
	if len(elems)%stream.TextBatchSize == 0 || len(elems) < 3*stream.TextBatchSize {
		t.Fatalf("%d elements: want several batches and a partial last one", len(elems))
	}
	cfg := persistConfig(w, alphabet, g.NumVertices(), 2)
	textDir, syncDir := t.TempDir(), t.TempDir()
	text, err := Open(cfg, PersistOptions{Dir: textDir})
	if err != nil {
		t.Fatal(err)
	}
	defer text.Abort()
	control, err := Open(cfg, PersistOptions{Dir: syncDir})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Abort()

	res, err := text.IngestText(bytes.NewReader(textOf(elems)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || res.Accepted != len(elems)-1 {
		t.Fatalf("res = %+v, want 1 rejected", res)
	}
	for i := 0; i < len(elems); i += stream.TextBatchSize {
		end := min(i+stream.TextBatchSize, len(elems))
		// The duplicate's rejection is expected; nothing else is.
		if err := control.IngestSync(elems[i:end]); (err != nil) != (i <= dupAt && dupAt < end) {
			t.Fatalf("IngestSync of [%d,%d): %v", i, end, err)
		}
	}
	assertSameServing(t, g, text, control)
	text.Abort()
	control.Abort()

	segs, err := filepath.Glob(filepath.Join(syncDir, "wal-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (%v)", syncDir, err)
	}
	if textSegs, _ := filepath.Glob(filepath.Join(textDir, "wal-*")); len(textSegs) != len(segs) {
		t.Fatalf("text path wrote %d WAL segments, IngestSync %d", len(textSegs), len(segs))
	}
	for _, seg := range segs {
		want, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(textDir, filepath.Base(seg)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("WAL segment %s differs: text path %d bytes, IngestSync %d bytes", filepath.Base(seg), len(got), len(want))
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestSmallIngestAllocs bounds what a one-element request costs a warm
// server, writer included: the ingest ring keeps both codecs' read
// buffers, so a small body must not pay for a fresh 64 KiB one.
func TestSmallIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled rings at random under the race detector")
	}
	s, err := New(persistConfig(nil, []graph.Label{"a"}, 1<<12, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	const calls = 200
	frames := make([][]byte, 2*calls)
	texts := make([][]byte, 2*calls)
	for i := range frames {
		el := []stream.Element{{Kind: stream.VertexElement, V: graph.VertexID(i), Label: "a"}}
		frames[i] = encodeFrames(t, el, 1)
		el[0].V += 2 * calls
		texts[i] = textOf(el)
	}
	for _, tc := range []struct {
		name   string
		ingest func(io.Reader) (FrameIngest, error)
		bodies [][]byte
	}{
		{"binary", s.IngestFrames, frames},
		{"text", s.IngestText, texts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feed := func(body []byte) {
				res, err := tc.ingest(bytes.NewReader(body))
				if err == nil {
					err = res.Err()
				}
				if err != nil || res.Accepted != 1 {
					t.Fatalf("ingest: %+v, %v", res, err)
				}
			}
			for _, b := range tc.bodies[:calls] { // warm the ring pool
				feed(b)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, b := range tc.bodies[calls:] {
				feed(b)
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 8<<10 {
				t.Fatalf("%d B per one-element %s ingest, want < 8 KiB", per, tc.name)
			}
		})
	}
}

// TestDecodeFailpoints drills the two decode-stage fault points: an
// erroring WireDecode injection poisons the frame (typed refusal, WAL
// and writer untouched), and a stalled decode (ServeDecodeStall with
// latency only) delays but does not corrupt the stream.
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

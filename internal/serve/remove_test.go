package serve

import (
	"math/rand"
	"testing"
	"time"

	"loom/internal/graph"
	"loom/internal/stream"
)

// churnStream splices deterministic removals and re-adds into an
// insert-only element stream without ever producing a rejectable element:
// a vertex is removed for good ("sticky") only when no later element
// references it, otherwise it is re-added immediately with its old label;
// removed edges never reappear because the source stream carries each
// edge once. Both servers of an equivalence pair must be fed the same
// spliced stream, so the splice depends only on (elems, seed).
func churnStream(elems []stream.Element, seed int64) (out []stream.Element, sticky []graph.VertexID) {
	lastRef := make(map[graph.VertexID]int)
	for i, el := range elems {
		lastRef[el.V] = i
		if el.Kind == stream.EdgeElement {
			lastRef[el.U] = i
		}
	}
	rng := rand.New(rand.NewSource(seed))
	labels := make(map[graph.VertexID]graph.Label)
	var liveV []graph.VertexID
	var liveE [][2]graph.VertexID
	for i, el := range elems {
		out = append(out, el)
		switch el.Kind {
		case stream.VertexElement:
			labels[el.V] = el.Label
			liveV = append(liveV, el.V)
		case stream.EdgeElement:
			liveE = append(liveE, [2]graph.VertexID{el.V, el.U})
		}
		switch x := rng.Float64(); {
		case x < 0.04 && len(liveV) > 0:
			j := rng.Intn(len(liveV))
			v := liveV[j]
			out = append(out, stream.Element{Kind: stream.RemoveVertexElement, V: v})
			keep := liveE[:0]
			for _, e := range liveE {
				if e[0] != v && e[1] != v {
					keep = append(keep, e)
				}
			}
			liveE = keep
			if lastRef[v] > i {
				out = append(out, stream.Element{Kind: stream.VertexElement, V: v, Label: labels[v]})
			} else {
				liveV[j] = liveV[len(liveV)-1]
				liveV = liveV[:len(liveV)-1]
				sticky = append(sticky, v)
			}
		case x < 0.08 && len(liveE) > 0:
			j := rng.Intn(len(liveE))
			e := liveE[j]
			liveE[j] = liveE[len(liveE)-1]
			liveE = liveE[:len(liveE)-1]
			out = append(out, stream.Element{Kind: stream.RemoveEdgeElement, V: e[0], U: e[1]})
		}
	}
	return out, sticky
}

// countRemovals counts removal elements in elems.
func countRemovals(elems []stream.Element) int {
	n := 0
	for i := range elems {
		if elems[i].Kind == stream.RemoveVertexElement || elems[i].Kind == stream.RemoveEdgeElement {
			n++
		}
	}
	return n
}

// TestRemovalSemantics covers the direct contract of the deletion path:
// removals validate before they apply, an applied vertex removal clears
// the placement, and the incremental cut/observed drift estimators agree
// with a from-scratch recount after arbitrary interleaved churn.
func TestRemovalSemantics(t *testing.T) {
	g, w, alphabet := testGraph(t, 300, 3, 5)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 3)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	elems, sticky := churnStream(elementsOf(t, g), 41)
	if countRemovals(elems) == 0 || len(sticky) == 0 {
		t.Fatalf("churn splice produced %d removals, %d sticky — widen the schedule", countRemovals(elems), len(sticky))
	}
	if err := s.IngestSync(elems); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	verify(t, s)
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	verify(t, s)

	// Removing a vertex or edge that is not in the served graph must be
	// rejected (and counted), not silently absorbed.
	before := s.Stats()
	if err := s.IngestSync([]stream.Element{{Kind: stream.RemoveVertexElement, V: 1 << 40}}); err == nil {
		t.Fatal("removal of unknown vertex was accepted")
	}
	verify(t, s)
	if err := s.IngestSync([]stream.Element{{Kind: stream.RemoveEdgeElement, V: sticky[0], U: 1 << 40}}); err == nil {
		t.Fatal("removal of unknown edge was accepted")
	}
	verify(t, s)
	if st := s.Stats(); st.Rejected != before.Rejected+2 {
		t.Fatalf("rejected = %d, want %d", st.Rejected, before.Rejected+2)
	}

	// Sticky-removed vertices serve no placement.
	for _, v := range sticky {
		if p, ok := s.Where(v); ok {
			t.Fatalf("Where(%d) = %v after removal", v, p)
		}
	}

	// Drift estimators survived the churn: recount the assigned-assigned
	// cut from scratch over the surviving graph.
	live := graph.New()
	lbl := make(map[graph.VertexID]graph.Label)
	type pair = [2]graph.VertexID
	edges := make(map[pair]bool)
	for _, el := range elems {
		switch el.Kind {
		case stream.VertexElement:
			lbl[el.V] = el.Label
		case stream.EdgeElement:
			e := pair{el.V, el.U}
			if el.U < el.V {
				e = pair{el.U, el.V}
			}
			edges[e] = true
		case stream.RemoveVertexElement:
			delete(lbl, el.V)
			for e := range edges {
				if e[0] == el.V || e[1] == el.V {
					delete(edges, e)
				}
			}
		case stream.RemoveEdgeElement:
			e := pair{el.V, el.U}
			if el.U < el.V {
				e = pair{el.U, el.V}
			}
			delete(edges, e)
		}
	}
	for v, l := range lbl {
		live.AddVertex(v, l)
	}
	for e := range edges {
		if err := live.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("rebuild model edge %v: %v", e, err)
		}
	}
	st := s.Stats()
	if st.Vertices != live.NumVertices() || st.Edges != live.NumEdges() {
		t.Fatalf("served graph %d/%d, model %d/%d", st.Vertices, st.Edges, live.NumVertices(), live.NumEdges())
	}
	if st.ObservedEdges != live.NumEdges() {
		t.Fatalf("observed edges = %d after drain, model has %d", st.ObservedEdges, live.NumEdges())
	}
	if cut := partitionCut(t, s, live); cut != st.CutEdges {
		t.Fatalf("incremental cut %d disagrees with recount %d after churn", st.CutEdges, cut)
	}
}

// TestWhereNotFoundAfterHandleRecycle pins the acceptance criterion that
// a removed vertex keeps answering not-found even after its interner
// handle has been recycled by later arrivals: the publication table is
// keyed by vertex id, so a recycled internal handle must never resurrect
// the old placement.
func TestWhereNotFoundAfterHandleRecycle(t *testing.T) {
	s, err := New(persistConfig(nil, []graph.Label{"a", "b"}, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	base := []stream.Element{
		{Kind: stream.VertexElement, V: 1, Label: "a"},
		{Kind: stream.VertexElement, V: 2, Label: "b"},
		{Kind: stream.VertexElement, V: 3, Label: "a"},
		{Kind: stream.EdgeElement, V: 1, U: 2},
		{Kind: stream.EdgeElement, V: 2, U: 3},
	}
	if err := s.IngestSync(base); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
	if _, ok := s.Where(3); !ok {
		t.Fatal("vertex 3 unplaced after drain")
	}
	if err := s.IngestSync([]stream.Element{{Kind: stream.RemoveVertexElement, V: 3}}); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
	if _, ok := s.Where(3); ok {
		t.Fatal("Where(3) still resolves right after removal")
	}

	// New arrivals recycle the freed handle (the interner free list is
	// LIFO, so the very next intern reuses it); the dead id must stay dead
	// while the newcomers get placements.
	var next []stream.Element
	for v := graph.VertexID(100); v < 116; v++ {
		next = append(next, stream.Element{Kind: stream.VertexElement, V: v, Label: "b"})
		next = append(next, stream.Element{Kind: stream.EdgeElement, V: v, U: 1})
	}
	if err := s.IngestSync(next); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
	if p, ok := s.Where(3); ok {
		t.Fatalf("Where(3) = %v through a recycled handle", p)
	}
	for v := graph.VertexID(100); v < 116; v++ {
		if _, ok := s.Where(v); !ok {
			t.Fatalf("Where(%d) unplaced after drain", v)
		}
	}

	// Re-adding the id is a fresh vertex: it gets a live placement again.
	if err := s.IngestSync([]stream.Element{
		{Kind: stream.VertexElement, V: 3, Label: "a"},
		{Kind: stream.EdgeElement, V: 3, U: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
	if _, ok := s.Where(3); !ok {
		t.Fatal("re-added vertex 3 unplaced after drain")
	}
}

// TestChurnCrashRecoveryMatchesControl is the deletion counterpart of
// TestCrashRecoveryMatchesControl: a durable server is hard-stopped
// mid-stream with removal records in the unsnapshotted WAL tail, reopened
// (pure replay), and must serve bit-identically to a control that never
// went down — including not-found for every vertex deleted before the
// crash.
func TestChurnCrashRecoveryMatchesControl(t *testing.T) {
	g, w, alphabet := testGraph(t, 500, 4, 9)
	elems, sticky := churnStream(elementsOf(t, g), 31)
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

	cut := len(elems) * 3 / 5
	if countRemovals(elems[:cut]) == 0 {
		t.Fatal("no removals ahead of the crash point; the replayed tail would be insert-only")
	}
	feedBatches(t, elems[:cut], 97, control, durable)

	durable.Abort()
	restarted, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer restarted.Stop()
	assertSameServing(t, g, restarted, control)

	feedBatches(t, elems[cut:], 97, control, restarted)
	if err := control.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, control)
	if err := restarted.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, restarted)
	assertSameServing(t, g, restarted, control)
	for _, v := range sticky {
		if p, ok := restarted.Where(v); ok {
			t.Fatalf("recovered server still places removed vertex %d at %v", v, p)
		}
	}
}

// TestSnapshotEveryBatchesBoundsWALTail proves the periodic checkpoint
// trigger keeps the WAL tail bounded without any operator Checkpoint
// call, and that recovery after a crash replays only that bounded tail.
func TestSnapshotEveryBatchesBoundsWALTail(t *testing.T) {
	g, w, alphabet := testGraph(t, 400, 3, 13)
	elems, _ := churnStream(elementsOf(t, g), 17)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 3)
	cfg.SnapshotEveryBatches = 4
	dir := t.TempDir()

	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	batches := 0
	for i := 0; i < len(elems); i += batch {
		end := i + batch
		if end > len(elems) {
			end = len(elems)
		}
		if err := s.IngestSync(elems[i:end]); err != nil {
			t.Fatalf("ingest batch at %d: %v", i, err)
		}
		verify(t, s)
		batches++
	}

	// The trigger runs on the writer goroutine after the batch burst, so
	// give the last periodic snapshot a moment to land.
	deadline := time.Now().Add(5 * time.Second)
	var ps PersistStats
	for {
		ps = *s.Stats().Persist
		if ps.Snapshots > 0 && ps.WALTail <= 2*int64(cfg.SnapshotEveryBatches) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("WAL tail never converged: %+v after %d batches", ps, batches)
		}
		time.Sleep(10 * time.Millisecond)
	}
	wantSnaps := int64(batches / cfg.SnapshotEveryBatches)
	if ps.Snapshots < wantSnaps/2 {
		t.Fatalf("only %d periodic snapshots across %d batches (every %d)", ps.Snapshots, batches, cfg.SnapshotEveryBatches)
	}

	// Crash and recover: replay must cover the tail, not the stream.
	s.Abort()
	restarted, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer restarted.Stop()
	ri := restarted.Stats().Persist.Recover
	if !ri.SnapshotLoaded {
		t.Fatalf("recovery ignored the periodic snapshots: %+v", ri)
	}
	if ri.ReplayedRecords > 3*cfg.SnapshotEveryBatches {
		t.Fatalf("replayed %d records; periodic snapshots every %d batches should bound the tail", ri.ReplayedRecords, cfg.SnapshotEveryBatches)
	}
	if tail := restarted.Stats().Persist.WALTail; tail != int64(ri.ReplayedRecords) {
		t.Fatalf("recovered WALTail = %d, want the %d replayed records", tail, ri.ReplayedRecords)
	}
}

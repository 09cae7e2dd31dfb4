package stream

import (
	"fmt"
	"slices"

	"loom/internal/graph"
	"loom/internal/ident"
)

// Window is a count-based sliding window over a graph-stream (paper §4.1,
// footnote 2: windows may be defined in terms of time or element count; we
// use vertex count, which bounds memory independent of edge density).
//
// The window holds the most recent vertices and every stream edge whose
// endpoints are both resident. When capacity is exceeded the oldest vertex
// is evicted; the caller receives the evicted vertex and its
// window-resident incident edges so it can be assigned to a partition.
//
// Residency is tracked by the window subgraph itself (a vertex is resident
// iff it is in the graph), deferred edges live in a handle-indexed slice,
// and the arrival queue is a ring buffer. Steady-state churn allocates
// nothing per vertex: handles and slot capacity are recycled, and the
// window graph's interner (see ident.Index) keeps only the few pages under
// the resident IDs, however far the stream's IDs run past the window's
// population, reusing a released page for the next one.
type Window struct {
	capacity int
	g        *graph.Graph // window-resident subgraph
	// arrival[head:] is the FIFO arrival order of resident vertices.
	arrival []graph.VertexID
	head    int
	// deferred is indexed by the window graph's vertex handle: edges whose
	// other endpoint already left the window, waiting to be surfaced in the
	// resident endpoint's Eviction. Slots are cleared at eviction, so a
	// recycled handle always starts empty.
	deferred [][]graph.VertexID
	// ev is the reusable eviction record: its neighbour slices are scratch
	// buffers overwritten by every eviction, so steady-state churn stays
	// allocation-free. See the lifetime contract on Eviction.
	ev Eviction
}

// NewWindow returns a window holding at most capacity vertices
// (capacity >= 1).
func NewWindow(capacity int) (*Window, error) {
	return NewWindowWithLabels(capacity, ident.NewLabels())
}

// NewWindowWithLabels is NewWindow with a caller-supplied label interner for
// the window subgraph, so LabelIDs agree with other components (LOOM shares
// the signature factory's interner, letting the tracker probe factor tables
// by LabelID without hashing label strings).
func NewWindowWithLabels(capacity int, lab *ident.Labels) (*Window, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("stream: window capacity %d < 1", capacity)
	}
	return &Window{
		capacity: capacity,
		g:        graph.NewWithLabels(lab),
		arrival:  make([]graph.VertexID, 0, capacity+1),
	}, nil
}

// Len returns the number of resident vertices.
func (w *Window) Len() int { return len(w.arrival) - w.head }

// Capacity returns the window's vertex capacity.
func (w *Window) Capacity() int { return w.capacity }

// Graph exposes the window-resident subgraph. Callers must treat it as
// read-only; mutations would desynchronise eviction bookkeeping.
func (w *Window) Graph() *graph.Graph { return w.g }

// Resident reports whether v is currently inside the window.
func (w *Window) Resident(v graph.VertexID) bool {
	return w.g.HasVertex(v)
}

// Oldest returns the vertex that would be evicted next and whether the
// window is non-empty.
func (w *Window) Oldest() (graph.VertexID, bool) {
	if w.Len() == 0 {
		return 0, false
	}
	return w.arrival[w.head], true
}

// Eviction describes a vertex leaving the window: the vertex, its label and
// the edges it had to other vertices (resident or already-assigned).
//
// The neighbour slices returned by AddVertex, EvictOldest and Evict are
// window-owned scratch buffers, valid only until the next eviction; callers
// that retain them must copy. Flush returns independently owned copies.
type Eviction struct {
	V     graph.VertexID
	Label graph.Label
	// WindowNeighbors are the still-resident neighbours of V at eviction.
	WindowNeighbors []graph.VertexID
	// AssignedNeighbors are neighbours of V that were evicted earlier
	// (edges to the already-partitioned portion of the graph).
	AssignedNeighbors []graph.VertexID
}

// deferredSlot returns the deferred-edge slot of a resident vertex's handle,
// growing the table to cover it.
func (w *Window) deferredSlot(h ident.Handle) *[]graph.VertexID {
	for int(h) >= len(w.deferred) {
		w.deferred = append(w.deferred, nil)
	}
	return &w.deferred[h]
}

// pushArrival appends v to the FIFO, compacting the ring when the dead
// prefix dominates.
func (w *Window) pushArrival(v graph.VertexID) {
	if w.head > 0 && len(w.arrival) == cap(w.arrival) {
		n := copy(w.arrival, w.arrival[w.head:])
		w.arrival = w.arrival[:n]
		w.head = 0
	}
	w.arrival = append(w.arrival, v)
}

// AddVertex inserts a vertex into the window. If the window is full the
// oldest vertex is evicted first and returned (evicted != nil). Inserting a
// vertex that is already resident only relabels it.
func (w *Window) AddVertex(v graph.VertexID, l graph.Label) *Eviction {
	if w.Resident(v) {
		w.g.AddVertex(v, l)
		return nil
	}
	var ev *Eviction
	if w.Len() >= w.capacity {
		ev = w.evictOldest()
	}
	w.g.AddVertex(v, l)
	w.pushArrival(v)
	return ev
}

// AddEdge records the stream edge {u,v}.
//
// If both endpoints are resident the edge joins the window subgraph and
// bothResident is true. If one endpoint has already been evicted (assigned),
// the edge is recorded against the resident endpoint so that its eventual
// Eviction lists it in AssignedNeighbors; bothResident is false. Edges whose
// endpoints are both gone are ignored (they were already surfaced).
func (w *Window) AddEdge(u, v graph.VertexID) (bothResident bool, err error) {
	if u == v {
		return false, fmt.Errorf("stream: self-loop {%d,%d}", u, v)
	}
	hu, ur := w.g.HandleOf(u)
	hv, vr := w.g.HandleOf(v)
	switch {
	case ur && vr:
		if w.g.HasEdge(u, v) {
			return true, nil
		}
		if err := w.g.AddEdge(u, v); err != nil {
			return false, err
		}
		return true, nil
	case ur:
		slot := w.deferredSlot(hu)
		*slot = append(*slot, v)
		return false, nil
	case vr:
		slot := w.deferredSlot(hv)
		*slot = append(*slot, u)
		return false, nil
	default:
		return false, nil
	}
}

// EvictOldest forces eviction of the oldest vertex; ok is false when the
// window is empty. The Eviction's neighbour slices are reused by the next
// eviction (see Eviction).
func (w *Window) EvictOldest() (Eviction, bool) {
	if w.Len() == 0 {
		return Eviction{}, false
	}
	return *w.evictOldest(), true
}

// Evict removes a specific resident vertex (used when LOOM assigns a whole
// motif match at once). It reports false if v is not resident. The
// Eviction's neighbour slices are reused by the next eviction (see
// Eviction).
func (w *Window) Evict(v graph.VertexID) (Eviction, bool) {
	if !w.Resident(v) {
		return Eviction{}, false
	}
	for i := w.head; i < len(w.arrival); i++ {
		if w.arrival[i] == v {
			w.arrival = append(w.arrival[:i], w.arrival[i+1:]...)
			break
		}
	}
	return *w.remove(v), true
}

// Discard deletes a resident vertex outright: unlike Evict, none of its
// edges survive it — edges to still-resident neighbours are dropped (not
// deferred), its own deferred edges are cleared, and deferred references
// other residents hold to it are scrubbed so no later eviction surfaces a
// deleted vertex as an AssignedNeighbor. It reports false if v is not
// resident.
func (w *Window) Discard(v graph.VertexID) bool {
	if !w.Resident(v) {
		return false
	}
	for i := w.head; i < len(w.arrival); i++ {
		if w.arrival[i] == v {
			w.arrival = append(w.arrival[:i], w.arrival[i+1:]...)
			break
		}
	}
	h, _ := w.g.HandleOf(v)
	if int(h) < len(w.deferred) {
		w.deferred[h] = w.deferred[h][:0]
	}
	w.g.RemoveVertex(v)
	w.scrubDeferred(v)
	return true
}

// RemoveEdge deletes the stream edge {u,v} from the window's bookkeeping:
// a resident-resident edge leaves the subgraph, an edge deferred against
// one resident endpoint loses one deferred entry, and an edge between two
// already-evicted vertices is a no-op here (the caller unwinds it from
// the assigned portion). It reports whether anything was removed.
func (w *Window) RemoveEdge(u, v graph.VertexID) bool {
	hu, ur := w.g.HandleOf(u)
	hv, vr := w.g.HandleOf(v)
	switch {
	case ur && vr:
		return w.g.RemoveEdge(u, v)
	case ur:
		return w.dropDeferred(hu, v)
	case vr:
		return w.dropDeferred(hv, u)
	}
	return false
}

// dropDeferred removes one deferred entry for endpoint other from handle
// h's slot.
func (w *Window) dropDeferred(h ident.Handle, other graph.VertexID) bool {
	if int(h) >= len(w.deferred) {
		return false
	}
	slot := w.deferred[h]
	for i, x := range slot {
		if x == other {
			w.deferred[h] = append(slot[:i], slot[i+1:]...)
			return true
		}
	}
	return false
}

// ForgetAssigned scrubs every deferred reference residents hold to an
// already-evicted (assigned) vertex that is being deleted, so no later
// eviction surfaces it as an AssignedNeighbor. For resident vertices use
// Discard, which scrubs as part of deletion.
func (w *Window) ForgetAssigned(v graph.VertexID) {
	w.scrubDeferred(v)
}

// scrubDeferred deletes every deferred reference any resident holds to
// the (deleted, formerly assigned or resident) vertex v. Bounded by the
// total deferred volume, i.e. O(window).
func (w *Window) scrubDeferred(v graph.VertexID) {
	for h := range w.deferred {
		slot := w.deferred[h]
		kept := slot[:0]
		for _, x := range slot {
			if x != v {
				kept = append(kept, x)
			}
		}
		w.deferred[h] = kept
	}
}

// Flush evicts every resident vertex in arrival order and returns the
// evictions; used at end-of-stream. Unlike the per-vertex eviction entry
// points, the returned records own their neighbour slices (each one is
// deep-copied out of the scratch buffers before the next eviction reuses
// them).
func (w *Window) Flush() []Eviction {
	out := make([]Eviction, 0, w.Len())
	for w.Len() > 0 {
		ev := *w.evictOldest()
		ev.WindowNeighbors = slices.Clone(ev.WindowNeighbors)
		ev.AssignedNeighbors = slices.Clone(ev.AssignedNeighbors)
		out = append(out, ev)
	}
	return out
}

//loom:hotpath
func (w *Window) evictOldest() *Eviction {
	v := w.arrival[w.head]
	w.head++
	if w.head == len(w.arrival) {
		w.arrival = w.arrival[:0]
		w.head = 0
	}
	return w.remove(v)
}

//loom:hotpath
func (w *Window) remove(v graph.VertexID) *Eviction {
	h, _ := w.g.HandleOf(v)
	l, _ := w.g.Label(v)
	ev := &w.ev
	ev.V, ev.Label = v, l
	ev.WindowNeighbors = w.g.AppendNeighbors(ev.WindowNeighbors[:0], v)
	ev.AssignedNeighbors = ev.AssignedNeighbors[:0]
	if int(h) < len(w.deferred) {
		ev.AssignedNeighbors = append(ev.AssignedNeighbors, w.deferred[h]...)
		w.deferred[h] = w.deferred[h][:0]
	}
	// Edges from v to still-resident neighbours must outlive v in the
	// window: record them as deferred so each neighbour's own eviction
	// still reports the (by then assigned) endpoint v.
	for _, u := range ev.WindowNeighbors {
		uh, _ := w.g.HandleOf(u)
		slot := w.deferredSlot(uh)
		*slot = append(*slot, v)
	}
	w.g.RemoveVertex(v)
	return ev
}

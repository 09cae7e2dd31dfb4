package state

import (
	"sync"
	"sync/atomic"

	"loom/internal/graph"
	"loom/internal/partition"
)

// Table is the placement lookup readers answer Where from. It is a
// single-writer publication structure: the writer stores placements
// atomically and any number of readers load slots lock-free. A slot
// transitions Unassigned -> p when a vertex is placed and p -> Unassigned
// (a tombstone) when it is deleted; both transitions are monotonic in
// stream order, so a reader holding an old table generation sees a
// consistent (if slightly stale) assignment in which removals, like
// placements, become visible as they happen. A restream swap replaces the
// whole table rather than re-pointing slots.
//
// Dense non-negative vertex IDs live in a flat []int32 indexed by ID (the
// common case: generators and streams emit 0..n-1). IDs outside the dense
// region — negative, or far beyond the live vertex count — fall back to a
// sync.Map shared by every growth generation of the table.
type Table struct {
	// dense[v] is the placement of vertex v, or denseUnassigned. Slots are
	// written with atomic.StoreInt32 and read with atomic.LoadInt32.
	dense []int32
	// sparse maps out-of-range VertexIDs to partition.ID.
	sparse *sync.Map
	// hasSparse is set once the first sparse placement exists, so the hot
	// dense-miss path can skip the map probe entirely. Shared across growth
	// generations (same pointer).
	hasSparse *atomic.Bool
}

const denseUnassigned = int32(-1)

func newTable(capHint int) *Table {
	t := &Table{sparse: &sync.Map{}, hasSparse: &atomic.Bool{}}
	if capHint > 0 {
		t.dense = newDense(capHint)
	}
	return t
}

func newDense(n int) []int32 {
	d := make([]int32, n)
	for i := range d {
		d[i] = denseUnassigned
	}
	return d
}

// Get returns v's placement. Safe for any goroutine.
func (t *Table) Get(v graph.VertexID) (partition.ID, bool) {
	if v >= 0 && int64(v) < int64(len(t.dense)) {
		if p := atomic.LoadInt32(&t.dense[v]); p != denseUnassigned {
			return partition.ID(p), true
		}
	}
	if t.hasSparse.Load() {
		if p, ok := t.sparse.Load(v); ok {
			return p.(partition.ID), true
		}
	}
	return partition.Unassigned, false
}

// denseEligible reports whether v should live in the dense region given the
// current vertex population: the region is allowed to overshoot the
// population by a constant factor so mostly-dense streams never touch the
// map, while a stray huge ID cannot balloon memory.
func denseEligible(v graph.VertexID, population int) bool {
	return v >= 0 && int64(v) < 8*(int64(population)+1024)
}

// grownDense returns the new dense length needed to cover index v.
func grownDense(cur int, v graph.VertexID) int {
	need := int(v) + 1
	n := cur
	if n < 1024 {
		n = 1024
	}
	for n < need {
		n *= 2
	}
	return n
}

// set stores one placement and returns the table to keep using: t itself,
// or a fresh growth generation (copy-on-write) when v outgrows the dense
// region of a population-vertex graph.
func (t *Table) set(v graph.VertexID, p partition.ID, population int) *Table {
	if v >= 0 && int64(v) < int64(len(t.dense)) {
		atomic.StoreInt32(&t.dense[v], int32(p))
		return t
	}
	if denseEligible(v, population) {
		nd := newDense(grownDense(len(t.dense), v))
		// Plain reads of our own previously published values: the writer
		// is the only goroutine that ever stores, and readers only read.
		copy(nd, t.dense)
		nd[v] = int32(p)
		return &Table{dense: nd, sparse: t.sparse, hasSparse: t.hasSparse}
	}
	t.hasSparse.Store(true)
	t.sparse.Store(v, p)
	return t
}

// clear tombstones one placement. The dense slot (when v is in range)
// flips back to denseUnassigned atomically, and the sparse entry is
// deleted unconditionally — the sparse map is shared by every growth
// generation, so readers holding an older table observe the removal too.
// Either way, a vertex ID recycled by a later re-add starts unplaced.
func (t *Table) clear(v graph.VertexID) {
	if v >= 0 && int64(v) < int64(len(t.dense)) {
		atomic.StoreInt32(&t.dense[v], denseUnassigned)
	}
	if t.hasSparse.Load() {
		t.sparse.Delete(v)
	}
}

// buildTable makes a fresh table generation holding exactly a's
// placements.
func buildTable(a *partition.Assignment) *Table {
	maxID := graph.VertexID(-1)
	a.EachVertex(func(v graph.VertexID, p partition.ID) {
		if v > maxID && denseEligible(v, a.Len()) {
			maxID = v
		}
	})
	// Pre-sized to the largest dense-eligible ID, so set never grows it.
	nt := newTable(grownDense(0, maxID))
	a.EachVertex(func(v graph.VertexID, p partition.ID) { nt = nt.set(v, p, a.Len()) })
	return nt
}

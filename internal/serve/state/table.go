package state

import (
	"loom/internal/graph"
	"loom/internal/ident"
	"loom/internal/partition"
)

// Table is the placement lookup Where answers from, lock-free: an
// ident.Index of partition+1 per placed vertex, updated in stream order and
// seen by every epoch published with it; restreams and restores replace it.
type Table struct{ ix ident.Index }

// Get returns v's placement, lock-free; inlining Paged keeps Where one call.
//
//loom:hotpath
func (t *Table) Get(v graph.VertexID) (partition.ID, bool) {
	p, settled := t.ix.Paged(int64(v))
	if !settled && p == 0 {
		p = t.ix.Get(int64(v))
	}
	return partition.ID(p) - 1, p != 0
}

//loom:hotpath
func (t *Table) set(v graph.VertexID, p partition.ID) { t.ix.Set(int64(v), uint32(p)+1) }

// buildTable makes a fresh table holding exactly a's placements.
func buildTable(a *partition.Assignment) *Table {
	t := &Table{}
	a.EachVertex(func(v graph.VertexID, p partition.ID) { t.set(v, p) })
	return t
}

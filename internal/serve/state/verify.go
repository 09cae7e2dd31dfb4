package state

import (
	"fmt"
	"slices"

	"loom/internal/graph"
	"loom/internal/partition"
)

// Verify recomputes the incremental state from scratch and reports the
// first disagreement: the table rebuilt from the assignment, pending =
// graph vertices not yet in the table, cut/observed recounted from graph ×
// assignment, and (with DecaySpan) edgeStamp keys = live edges. It must be
// called right after a Publish, when the table mirrors the assignment.
// Tests and the chaos harness run it after every operation; nothing on
// the serving path calls it.
func (s *State) Verify() error {
	cur := s.p.Assignment()
	want := buildTable(cur)
	var err error
	unplaced := 0
	s.g.EachVertex(func(v graph.VertexID) bool {
		p, ok := s.tab.Get(v)
		switch wp, wok := want.Get(v); {
		case p != wp || ok != wok:
			err = fmt.Errorf("state: table places vertex %d on %d, assignment says %d", v, p, wp)
		case !ok && !slices.Contains(s.pending, v):
			err = fmt.Errorf("state: unplaced vertex %d is not pending", v)
		case !ok:
			unplaced++
		}
		return err == nil
	})
	if err == nil && (unplaced != len(s.pending) || cur.Len() != s.g.NumVertices()-unplaced) {
		err = fmt.Errorf("state: %d vertices, %d assigned, %d unplaced, %d pending", s.g.NumVertices(), cur.Len(), unplaced, len(s.pending))
	}
	if err != nil {
		return err
	}
	cut, observed, stamped := 0, 0, 0
	s.g.EachEdge(func(u, v graph.VertexID) bool {
		if pu, pv := cur.Get(u), cur.Get(v); pu != partition.Unassigned && pv != partition.Unassigned {
			observed++
			if pu != pv {
				cut++
			}
		}
		if _, ok := s.edgeStamp[graph.Edge{U: u, V: v}.Normalize()]; ok {
			stamped++
		}
		return true
	})
	if cut != s.cut || observed != s.observed {
		return fmt.Errorf("state: cut/observed %d/%d, recount gives %d/%d", s.cut, s.observed, cut, observed)
	}
	if s.edgeStamp != nil && (stamped != s.g.NumEdges() || stamped != len(s.edgeStamp)) {
		return fmt.Errorf("state: %d edges, %d stamped, %d stamps", s.g.NumEdges(), stamped, len(s.edgeStamp))
	}
	return nil
}

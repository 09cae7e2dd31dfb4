package partition

import (
	"testing"

	"loom/internal/graph"
)

// benchNeighbors is a typical placement scoring input: 8 already-placed
// neighbours spread over the partitions.
func benchNeighbors(b *testing.B, s Streaming, k int) []graph.VertexID {
	b.Helper()
	neighbors := make([]graph.VertexID, 8)
	for i := range neighbors {
		v := graph.VertexID(i + 1)
		neighbors[i] = v
		if err := s.Assignment().Set(v, ID(i%k)); err != nil {
			b.Fatal(err)
		}
	}
	return neighbors
}

// BenchmarkGreedyPlace measures steady-state single-vertex LDG placement
// over a bounded vertex population (the restreaming regime: later passes
// re-place the same vertices); after the dense-core refactor this must run
// at 0 allocs/op.
func BenchmarkGreedyPlace(b *testing.B) {
	cfg := Config{K: 16, ExpectedVertices: 1 << 30, Slack: 1.1, Seed: 1}
	ldg, err := NewLDG(cfg)
	if err != nil {
		b.Fatal(err)
	}
	neighbors := benchNeighbors(b, ldg, cfg.K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ldg.Place(graph.VertexID(100+(i&0xFFFF)), neighbors)
	}
}

// BenchmarkGreedyPlaceGroup measures motif-group placement (4-vertex group,
// LOOM's hot path for matched sub-graphs).
func BenchmarkGreedyPlaceGroup(b *testing.B) {
	cfg := Config{K: 16, ExpectedVertices: 1 << 30, Slack: 1.1, Seed: 1}
	ldg, err := NewLDG(cfg)
	if err != nil {
		b.Fatal(err)
	}
	external := benchNeighbors(b, ldg, cfg.K)
	group := make([]graph.VertexID, 4)
	var neighbors NeighborLists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := graph.VertexID(100 + 4*(i&0xFFFF))
		neighbors.Reset(len(group))
		for j := range group {
			group[j] = base + graph.VertexID(j)
			neighbors.Set(j, external, nil)
		}
		ldg.PlaceGroup(group, neighbors)
	}
}

// BenchmarkFennelPlace measures steady-state single-vertex Fennel placement
// over a bounded vertex population; after the dense-core refactor this must
// run at 0 allocs/op.
func BenchmarkFennelPlace(b *testing.B) {
	cfg := Config{K: 16, ExpectedVertices: 1 << 30, Slack: 1.1, Seed: 1}
	f, err := NewFennel(FennelConfig{Config: cfg, ExpectedEdges: 1 << 31})
	if err != nil {
		b.Fatal(err)
	}
	neighbors := benchNeighbors(b, f, cfg.K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Place(graph.VertexID(100+(i&0xFFFF)), neighbors)
	}
}

// BenchmarkAssignmentGet measures the per-neighbour assignment probe that
// dominates scoring.
func BenchmarkAssignmentGet(b *testing.B) {
	a := MustNewAssignment(16)
	for i := 0; i < 1024; i++ {
		if err := a.Set(graph.VertexID(i), ID(i%16)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Get(graph.VertexID(i & 1023))
	}
}

package core

import (
	"slices"
	"testing"

	"loom/internal/graph"
	"loom/internal/ident"
	"loom/internal/partition"
	"loom/internal/stream"
)

func TestTraversalWeightingRuns(t *testing.T) {
	g := graph.Fig1Graph()
	cfg := baseConfig(8, 2)
	cfg.TraversalWeighting = true
	p, err := New(cfg, fig1Trie(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.TraversalBias != 0.1 {
		t.Fatalf("default bias = %v, want 0.1", p.cfg.TraversalBias)
	}
	elems, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Run(stream.NewSliceSource(elems))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 8 {
		t.Fatalf("assigned %d, want 8", a.Len())
	}
	// The square must still be kept whole: weighting changes scores, not
	// group atomicity.
	p0 := a.Get(1)
	for _, v := range []graph.VertexID{2, 5, 6} {
		if a.Get(v) != p0 {
			t.Fatalf("square split under weighting: %d on %d vs %d", v, a.Get(v), p0)
		}
	}
}

// TestOnlyTraversalWeightingInternsLabels pins that the per-vertex label
// memory behind edgeWeight is kept only when traversal weighting reads it,
// and that skipping it leaves the shared label interner's LabelIDs as
// they were (the window graph interns each label on arrival anyway).
func TestOnlyTraversalWeightingInternsLabels(t *testing.T) {
	elems, err := stream.FromGraph(graph.Fig1Graph(), stream.TemporalOrder, nil)
	if err != nil {
		t.Fatal(err)
	}
	labels := make(map[bool][]string)
	for _, weighting := range []bool{false, true} {
		cfg := baseConfig(8, 2)
		cfg.TraversalWeighting = weighting
		p, err := New(cfg, fig1Trie(t))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(stream.NewSliceSource(elems)); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{false: 0, true: 8}[weighting]; p.verts.Len() != want || len(p.labelIDs) != want {
			t.Fatalf("weighting %v: %d vertices and %d labels remembered, want %d", weighting, p.verts.Len(), len(p.labelIDs), want)
		}
		for id := 0; id < p.labelSet.Len(); id++ {
			labels[weighting] = append(labels[weighting], p.labelSet.Name(ident.LabelID(id)))
		}
	}
	if !slices.Equal(labels[false], labels[true]) {
		t.Fatalf("LabelIDs differ: %v without weighting, %v with", labels[false], labels[true])
	}
}

func TestEdgeWeightFallsBackToBias(t *testing.T) {
	cfg := baseConfig(8, 2)
	cfg.TraversalWeighting = true
	cfg.TraversalBias = 0.25
	p, err := New(cfg, fig1Trie(t))
	if err != nil {
		t.Fatal(err)
	}
	// Unknown labels: bias only.
	if w := p.edgeWeight(100, 200); w != 0.25 {
		t.Fatalf("weight for unknown labels = %v, want bias 0.25", w)
	}
	// Known labels of a hot motif: bias + P(ab) = 0.25 + 1.0.
	p.noteLabel(1, "a")
	p.noteLabel(2, "b")
	if w := p.edgeWeight(1, 2); w != 1.25 {
		t.Fatalf("weight for ab = %v, want 1.25", w)
	}
	// Known labels never traversed together: bias only (P(dd)=0).
	p.noteLabel(3, "d")
	p.noteLabel(4, "d")
	if w := p.edgeWeight(3, 4); w != 0.25 {
		t.Fatalf("weight for dd = %v, want 0.25", w)
	}
}

func TestMaxGroupSizeValidation(t *testing.T) {
	cfg := baseConfig(8, 2)
	cfg.MaxGroupSize = -1
	if _, err := New(cfg, emptyTrie()); err == nil {
		t.Fatal("negative MaxGroupSize should be rejected")
	}
}

func TestMaxGroupSizeSplitsChain(t *testing.T) {
	// A 4-chain abcd is one motif group; with MaxGroupSize 2 it must be
	// split into two blocks of two, and the largest recorded group must
	// respect the cap.
	cfg := baseConfig(8, 2)
	cfg.MaxGroupSize = 2
	p, err := New(cfg, fig1Trie(t))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Path("a", "b", "c", "d")
	elems, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Run(stream.NewSliceSource(elems))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 4 {
		t.Fatalf("assigned %d, want 4", a.Len())
	}
	st := p.Stats()
	if st.LargestGroup > 2 {
		t.Fatalf("largest group %d exceeds cap 2", st.LargestGroup)
	}
	if st.GroupsSplit == 0 {
		t.Fatal("the abcd group should have been split")
	}
	// BFS chunking from the evicted vertex keeps blocks contiguous: the
	// first block is {0,1}, the second {2,3}.
	if a.Get(0) != a.Get(1) {
		t.Error("block {0,1} split")
	}
	if a.Get(2) != a.Get(3) {
		t.Error("block {2,3} split")
	}
}

func TestSplitGroupUnlimitedPassthrough(t *testing.T) {
	// Without MaxGroupSize the abcd chain is placed as one block of four.
	p, err := New(baseConfig(8, 2), fig1Trie(t))
	if err != nil {
		t.Fatal(err)
	}
	elems, err := stream.FromGraph(graph.Path("a", "b", "c", "d"), stream.TemporalOrder, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(stream.NewSliceSource(elems)); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.GroupsSplit != 0 || st.MotifGroups != 1 || st.LargestGroup != 4 {
		t.Fatalf("unlimited split: %+v, want one unsplit group of 4", st)
	}
}

func TestSplitGroupUnreachableMembersAppended(t *testing.T) {
	cfg := baseConfig(8, 2)
	cfg.MaxGroupSize = 2
	p, err := New(cfg, fig1Trie(t))
	if err != nil {
		t.Fatal(err)
	}
	// Neighbour info deliberately omits 9: BFS cannot reach it, but it
	// must still come out, after the reachable members, with its (empty)
	// neighbour list still parallel to it.
	group := []graph.VertexID{1, 2, 9}
	p.groupNbrs.Reset(len(group))
	p.groupNbrs.Set(0, []graph.VertexID{2, 77}, nil)
	p.groupNbrs.Set(1, []graph.VertexID{1}, []graph.VertexID{88})
	order := p.splitGroup(2, group)
	if want := []graph.VertexID{2, 1, 9}; !slices.Equal(order, want) {
		t.Fatalf("split order = %v, want %v", order, want)
	}
	for i, want := range [][]graph.VertexID{{1, 88}, {2, 77}, {}} {
		if got := p.groupNbrs.Of(i); !slices.Equal(got, want) {
			t.Fatalf("neighbours of %d after split = %v, want %v", order[i], got, want)
		}
	}
}

func TestWeightedPlacementPrefersHotEdges(t *testing.T) {
	// Direct check of the weighted LDG score: a vertex with one hot-motif
	// neighbour (ab, p=1.0) on partition 1 and two cold-pair neighbours
	// (dd, p=0) on partition 0 should follow the hot edge under
	// traversal weighting, but the cold pair under unit weights.
	trie := fig1Trie(t)
	mk := func(weighting bool) partition.ID {
		cfg := Config{
			Partition:          partition.Config{K: 2, ExpectedVertices: 100, Slack: 2, Seed: 3},
			WindowSize:         4,
			Threshold:          0.3,
			TraversalWeighting: weighting,
			TraversalBias:      0.01,
		}
		p, err := New(cfg, trie)
		if err != nil {
			t.Fatal(err)
		}
		// Pre-place: hot neighbour 10 (label b) on partition 1; cold
		// neighbours 20, 21 (label d) on partition 0.
		p.noteLabel(10, "b")
		p.noteLabel(20, "d")
		p.noteLabel(21, "d")
		if err := p.ldg.Assignment().Set(10, 1); err != nil {
			t.Fatal(err)
		}
		if err := p.ldg.Assignment().Set(20, 0); err != nil {
			t.Fatal(err)
		}
		if err := p.ldg.Assignment().Set(21, 0); err != nil {
			t.Fatal(err)
		}
		p.noteLabel(1, "a")
		ev := stream.Eviction{V: 1, Label: "a", AssignedNeighbors: []graph.VertexID{10, 20, 21}}
		p.assignSingle(ev)
		return p.ldg.Assignment().Get(1)
	}
	if got := mk(false); got != 0 {
		t.Fatalf("unit weights: placed on %d, want 0 (two cold edges beat one hot)", got)
	}
	if got := mk(true); got != 1 {
		t.Fatalf("traversal weights: placed on %d, want 1 (hot ab edge dominates)", got)
	}
}

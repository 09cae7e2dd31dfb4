package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"loom/internal/graph"
)

func TestNewAssignmentValidation(t *testing.T) {
	if _, err := NewAssignment(0); err == nil {
		t.Fatal("k=0 should be rejected")
	}
	a, err := NewAssignment(3)
	if err != nil {
		t.Fatal(err)
	}
	if a.K() != 3 || a.Len() != 0 {
		t.Fatal("fresh assignment state wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewAssignment should panic on bad k")
		}
	}()
	MustNewAssignment(-1)
}

func TestAssignmentSetGetMove(t *testing.T) {
	a := MustNewAssignment(2)
	if err := a.Set(1, 0); err != nil {
		t.Fatal(err)
	}
	if a.Get(1) != 0 || !a.Assigned(1) {
		t.Fatal("Get/Assigned wrong after Set")
	}
	if a.Get(2) != Unassigned || a.Assigned(2) {
		t.Fatal("unknown vertex should be Unassigned")
	}
	// Move keeps sizes consistent.
	if err := a.Set(1, 1); err != nil {
		t.Fatal(err)
	}
	if a.Size(0) != 0 || a.Size(1) != 1 {
		t.Fatalf("sizes after move = %v", a.Sizes())
	}
	if err := a.Set(1, 5); err == nil {
		t.Fatal("out-of-range partition should error")
	}
	if a.Size(9) != 0 {
		t.Fatal("Size out of range should be 0")
	}
}

func TestAssignmentCutEdges(t *testing.T) {
	g := graph.Path("a", "b", "c")
	a := MustNewAssignment(2)
	mustSet(t, a, 0, 0)
	mustSet(t, a, 1, 0)
	mustSet(t, a, 2, 1)
	if cut := a.CutEdges(g); cut != 1 {
		t.Fatalf("cut = %d, want 1", cut)
	}
	// Unassigned endpoints are skipped.
	b := MustNewAssignment(2)
	mustSet(t, b, 0, 0)
	if cut := b.CutEdges(g); cut != 0 {
		t.Fatalf("cut with unassigned = %d, want 0", cut)
	}
}

func mustSet(t *testing.T, a *Assignment, v graph.VertexID, p ID) {
	t.Helper()
	if err := a.Set(v, p); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentReset(t *testing.T) {
	a := MustNewAssignment(3)
	for v := graph.VertexID(0); v < 9; v++ {
		mustSet(t, a, v, ID(v%3))
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", a.Len())
	}
	for p := ID(0); p < 3; p++ {
		if a.Size(p) != 0 {
			t.Fatalf("Size(%d) after Reset = %d, want 0", p, a.Size(p))
		}
	}
	for v := graph.VertexID(0); v < 9; v++ {
		if a.Get(v) != Unassigned || a.Assigned(v) {
			t.Fatalf("vertex %d still assigned after Reset", v)
		}
	}
	a.EachVertex(func(v graph.VertexID, p ID) {
		t.Fatalf("EachVertex visited %d -> %d after Reset", v, p)
	})
	// The handle space is retained: re-assigning reuses it and reads back.
	mustSet(t, a, 4, 2)
	if a.Get(4) != 2 || a.Len() != 1 || a.Size(2) != 1 {
		t.Fatal("re-assignment after Reset wrong")
	}
}

func TestAssignmentResetEpochWrap(t *testing.T) {
	a := MustNewAssignment(2)
	mustSet(t, a, 7, 1)
	// Force the wrap branch: the next Reset overflows the epoch counter and
	// must rewrite stamps so ancient slots cannot alias as live.
	a.epoch = ^uint32(0)
	a.stamp[0] = ^uint32(0) // pretend vertex 7 was placed in this epoch
	a.Reset()
	if a.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", a.epoch)
	}
	if a.Get(7) != Unassigned || a.Len() != 0 {
		t.Fatal("stale placement survived epoch wrap")
	}
	mustSet(t, a, 7, 0)
	if a.Get(7) != 0 || a.Len() != 1 {
		t.Fatal("re-assignment after wrap wrong")
	}
}

func TestAssignmentCloneIndependent(t *testing.T) {
	a := MustNewAssignment(2)
	mustSet(t, a, 1, 0)
	c := a.Clone()
	mustSet(t, c, 1, 1)
	if a.Get(1) != 0 {
		t.Fatal("clone mutation affected original")
	}
	if a.MaxSize() != 1 {
		t.Fatal("MaxSize wrong")
	}
}

func TestConfigCapacity(t *testing.T) {
	c := Config{K: 4, ExpectedVertices: 100}
	if got := c.Capacity(); got != 25 {
		t.Fatalf("Capacity = %v, want 25", got)
	}
	c.Slack = 1.2
	if got := c.Capacity(); got != 30 {
		t.Fatalf("Capacity with slack = %v, want 30", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{K: 0, ExpectedVertices: 10},
		{K: 2, ExpectedVertices: 0},
		{K: 2, ExpectedVertices: 10, Slack: -1},
	}
	for _, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("config %+v should fail validation", c)
		}
	}
	if err := (Config{K: 2, ExpectedVertices: 10}).validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestHashDeterministicAndComplete(t *testing.T) {
	cfg := Config{K: 4, ExpectedVertices: 100}
	h1, err := NewHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := NewHash(cfg)
	for i := 0; i < 100; i++ {
		p1 := h1.Place(graph.VertexID(i), nil)
		p2 := h2.Place(graph.VertexID(i), nil)
		if p1 != p2 {
			t.Fatal("hash must be deterministic")
		}
		if p1 < 0 || int(p1) >= 4 {
			t.Fatalf("partition %d out of range", p1)
		}
	}
	if h1.Assignment().Len() != 100 {
		t.Fatal("all vertices should be assigned")
	}
	if h1.Name() != "hash" {
		t.Fatal("name wrong")
	}
}

func TestHashRoughBalance(t *testing.T) {
	h, _ := NewHash(Config{K: 4, ExpectedVertices: 4000})
	for i := 0; i < 4000; i++ {
		h.Place(graph.VertexID(i), nil)
	}
	for p := 0; p < 4; p++ {
		s := h.Assignment().Size(ID(p))
		if s < 800 || s > 1200 {
			t.Fatalf("hash partition %d size %d far from 1000", p, s)
		}
	}
}

func TestBalancedPerfectBalance(t *testing.T) {
	b, err := NewBalanced(Config{K: 3, ExpectedVertices: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		b.Place(graph.VertexID(i), nil)
	}
	for p := 0; p < 3; p++ {
		if b.Assignment().Size(ID(p)) != 3 {
			t.Fatalf("balanced sizes = %v", b.Assignment().Sizes())
		}
	}
	if b.Name() != "balanced" {
		t.Fatal("name wrong")
	}
}

func TestChunkingFillsSequentially(t *testing.T) {
	c, err := NewChunking(Config{K: 2, ExpectedVertices: 4})
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]ID, 4)
	for i := 0; i < 4; i++ {
		ps[i] = c.Place(graph.VertexID(i), nil)
	}
	if ps[0] != 0 || ps[1] != 0 || ps[2] != 1 || ps[3] != 1 {
		t.Fatalf("chunking placements = %v", ps)
	}
	if c.Name() != "chunking" {
		t.Fatal("name wrong")
	}
}

func TestLDGPrefersNeighborPartition(t *testing.T) {
	ldg, err := NewLDG(Config{K: 2, ExpectedVertices: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Seed vertex 0 onto some partition, then its neighbour must follow.
	p0 := ldg.Place(0, nil)
	p1 := ldg.Place(1, []graph.VertexID{0})
	if p0 != p1 {
		t.Fatalf("LDG should co-locate neighbour: %d vs %d", p0, p1)
	}
}

func TestLDGCapacityPenalty(t *testing.T) {
	// Capacity 2 per partition (n=4, k=2). After filling partition 0 with
	// two vertices, a third vertex adjacent to them must spill to
	// partition 1 because the weight term hits zero.
	ldg, err := NewLDG(Config{K: 2, ExpectedVertices: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := ldg.Assignment()
	mustSet(t, a, 10, 0)
	mustSet(t, a, 11, 0)
	p := ldg.Place(12, []graph.VertexID{10, 11})
	if p != 1 {
		t.Fatalf("LDG placed on %d, want 1 (capacity penalty)", p)
	}
}

func TestGreedyUnweightedIgnoresLoadUntilTie(t *testing.T) {
	g, err := NewDeterministicGreedy(Config{K: 2, ExpectedVertices: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := g.Assignment()
	mustSet(t, a, 10, 0)
	mustSet(t, a, 11, 0)
	// Unweighted greedy still follows neighbours even at capacity.
	p := g.Place(12, []graph.VertexID{10, 11})
	if p != 0 {
		t.Fatalf("unweighted greedy placed on %d, want 0", p)
	}
	if g.Name() != "greedy" {
		t.Fatal("name wrong")
	}
}

func TestExponentialGreedyName(t *testing.T) {
	g, err := NewExponentialGreedy(Config{K: 2, ExpectedVertices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "expgreedy" {
		t.Fatal("name wrong")
	}
	g.Place(1, nil) // smoke: must not panic
}

// neighborLists builds a NeighborLists arena from one list per group member.
func neighborLists(lists ...[]graph.VertexID) NeighborLists {
	var l NeighborLists
	l.Reset(len(lists))
	for i, ns := range lists {
		l.Set(i, ns, nil)
	}
	return l
}

func TestPlaceGroupAtomicAndInternalEdgesIgnored(t *testing.T) {
	ldg, err := NewLDG(Config{K: 2, ExpectedVertices: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := ldg.Assignment()
	mustSet(t, a, 100, 1) // anchor on partition 1
	group := []graph.VertexID{1, 2, 3}
	neighbors := neighborLists(
		[]graph.VertexID{2, 3},   // internal only
		[]graph.VertexID{1, 100}, // one external link to partition 1
		[]graph.VertexID{1, 2},
	)
	p := ldg.PlaceGroup(group, neighbors)
	if p != 1 {
		t.Fatalf("group placed on %d, want 1 (follows external link)", p)
	}
	for _, v := range group {
		if a.Get(v) != 1 {
			t.Fatalf("group member %d on %d, want 1", v, a.Get(v))
		}
	}
}

func TestPlaceWeightedFollowsHeavyEdges(t *testing.T) {
	ldg, err := NewLDG(Config{K: 2, ExpectedVertices: 100, Slack: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := ldg.Assignment()
	mustSet(t, a, 10, 0)
	mustSet(t, a, 11, 0)
	mustSet(t, a, 20, 1)
	// Two light edges to partition 0, one heavy edge to partition 1.
	weights := map[graph.VertexID]float64{10: 0.1, 11: 0.1, 20: 1.0}
	p := ldg.PlaceWeighted(1, []graph.VertexID{10, 11, 20}, func(_, n graph.VertexID) float64 {
		return weights[n]
	})
	if p != 1 {
		t.Fatalf("weighted placement = %d, want 1 (heavy edge wins)", p)
	}
	// Unweighted: two edges beat one.
	ldg2, _ := NewLDG(Config{K: 2, ExpectedVertices: 100, Slack: 2, Seed: 1})
	a2 := ldg2.Assignment()
	mustSet(t, a2, 10, 0)
	mustSet(t, a2, 11, 0)
	mustSet(t, a2, 20, 1)
	if p := ldg2.Place(1, []graph.VertexID{10, 11, 20}); p != 0 {
		t.Fatalf("unweighted placement = %d, want 0", p)
	}
}

func TestPlaceGroupWeighted(t *testing.T) {
	ldg, err := NewLDG(Config{K: 2, ExpectedVertices: 100, Slack: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := ldg.Assignment()
	mustSet(t, a, 50, 1)
	group := []graph.VertexID{1, 2}
	neighbors := neighborLists([]graph.VertexID{2, 50}, []graph.VertexID{1})
	p := ldg.PlaceGroupWeighted(group, neighbors, func(_, _ graph.VertexID) float64 { return 2.0 })
	if p != 1 {
		t.Fatalf("group placed on %d, want 1", p)
	}
	for _, v := range group {
		if a.Get(v) != 1 {
			t.Fatalf("member %d not co-located", v)
		}
	}
}

func TestFennelValidation(t *testing.T) {
	if _, err := NewFennel(FennelConfig{Config: Config{K: 2, ExpectedVertices: 10}}); err == nil {
		t.Fatal("Fennel without edges or alpha should error")
	}
	if _, err := NewFennel(FennelConfig{Config: Config{K: 0, ExpectedVertices: 10}, ExpectedEdges: 5}); err == nil {
		t.Fatal("bad base config should error")
	}
	f, err := NewFennel(FennelConfig{Config: Config{K: 2, ExpectedVertices: 10}, ExpectedEdges: 20})
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "fennel" {
		t.Fatal("name wrong")
	}
}

func TestFennelFollowsNeighbors(t *testing.T) {
	f, err := NewFennel(FennelConfig{Config: Config{K: 2, ExpectedVertices: 100, Seed: 4}, ExpectedEdges: 300})
	if err != nil {
		t.Fatal(err)
	}
	p0 := f.Place(0, nil)
	p1 := f.Place(1, []graph.VertexID{0})
	if p0 != p1 {
		t.Fatalf("Fennel should co-locate neighbour: %d vs %d", p0, p1)
	}
}

func TestPartitionStreamAssignsAll(t *testing.T) {
	g := graph.Fig1Graph()
	ldg, _ := NewLDG(Config{K: 2, ExpectedVertices: g.NumVertices(), Slack: 1.2, Seed: 5})
	a := PartitionStream(g, g.Vertices(), ldg)
	if a.Len() != g.NumVertices() {
		t.Fatalf("assigned %d, want %d", a.Len(), g.NumVertices())
	}
}

func TestLDGBeatsHashOnCut(t *testing.T) {
	// The C1 shape at unit scale: on a graph with strong community
	// structure, LDG must cut far fewer edges than hash.
	r := rand.New(rand.NewSource(11))
	g := plantedTwoCommunities(r, 200, 0.2, 0.01)
	order := g.Vertices()
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	hash, _ := NewHash(Config{K: 2, ExpectedVertices: 200})
	ldg, _ := NewLDG(Config{K: 2, ExpectedVertices: 200, Slack: 1.1, Seed: 7})
	ha := PartitionStream(g, order, hash)
	la := PartitionStream(g, order, ldg)

	hc, lc := ha.CutEdges(g), la.CutEdges(g)
	t.Logf("cut: hash=%d ldg=%d", hc, lc)
	if lc >= hc {
		t.Fatalf("LDG cut %d should beat hash cut %d", lc, hc)
	}
}

// plantedTwoCommunities builds a two-community graph without importing gen
// (avoiding a package cycle in tests).
func plantedTwoCommunities(r *rand.Rand, n int, pIn, pOut float64) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddVertex(graph.VertexID(i), "x")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pOut
			if (i < n/2) == (j < n/2) {
				p = pIn
			}
			if r.Float64() < p {
				if err := g.AddEdge(graph.VertexID(i), graph.VertexID(j)); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func TestPropertyStreamingPartitionersComplete(t *testing.T) {
	// Every heuristic assigns every vertex exactly once, within range, and
	// sizes sum to n.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(60)
		g := plantedTwoCommunities(r, n, 0.2, 0.05)
		k := 2 + r.Intn(4)
		cfg := Config{K: k, ExpectedVertices: n, Slack: 1.1, Seed: seed}
		mk := []func() (Streaming, error){
			func() (Streaming, error) { return NewHash(cfg) },
			func() (Streaming, error) { return NewBalanced(cfg) },
			func() (Streaming, error) { return NewChunking(cfg) },
			func() (Streaming, error) { return NewDeterministicGreedy(cfg) },
			func() (Streaming, error) { return NewLDG(cfg) },
			func() (Streaming, error) { return NewExponentialGreedy(cfg) },
			func() (Streaming, error) {
				return NewFennel(FennelConfig{Config: cfg, ExpectedEdges: g.NumEdges()})
			},
		}
		for _, f := range mk {
			s, err := f()
			if err != nil {
				return false
			}
			a := PartitionStream(g, g.Vertices(), s)
			if a.Len() != n {
				return false
			}
			sum := 0
			for _, sz := range a.Sizes() {
				if sz < 0 {
					return false
				}
				sum += sz
			}
			if sum != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"loom/internal/graph"
	"loom/internal/motif"
	"loom/internal/partition"
	"loom/internal/query"
	"loom/internal/signature"
	"loom/internal/stream"
)

func fig1Trie(t testing.TB) *motif.Trie {
	t.Helper()
	f := signature.NewFactoryForAlphabet([]graph.Label{"a", "b", "c", "d"})
	tr := motif.New(f, motif.Options{MaxMotifVertices: 4})
	if err := query.Fig1Workload().BuildTrie(tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

func emptyTrie() *motif.Trie {
	return motif.New(signature.NewFactory(), motif.Options{})
}

func baseConfig(n, k int) Config {
	return Config{
		Partition:  partition.Config{K: k, ExpectedVertices: n, Slack: 1.5, Seed: 1},
		WindowSize: 8,
		Threshold:  0.3,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(baseConfig(8, 2), nil); err == nil {
		t.Fatal("nil trie should be rejected")
	}
	bad := baseConfig(8, 2)
	bad.WindowSize = -1
	if _, err := New(bad, emptyTrie()); err == nil {
		t.Fatal("negative window should be rejected")
	}
	bad = baseConfig(8, 2)
	bad.Threshold = 1.5
	if _, err := New(bad, emptyTrie()); err == nil {
		t.Fatal("threshold > 1 should be rejected")
	}
	bad = baseConfig(8, 0)
	if _, err := New(bad, emptyTrie()); err == nil {
		t.Fatal("k=0 should be rejected")
	}
}

func TestDefaultWindowApplied(t *testing.T) {
	cfg := baseConfig(8, 2)
	cfg.WindowSize = 0
	p, err := New(cfg, emptyTrie())
	if err != nil {
		t.Fatal(err)
	}
	if p.Window().Capacity() != DefaultWindowSize {
		t.Fatalf("window capacity = %d, want %d", p.Window().Capacity(), DefaultWindowSize)
	}
}

func TestRunAssignsEveryVertex(t *testing.T) {
	g := graph.Fig1Graph()
	p, err := New(baseConfig(8, 2), fig1Trie(t))
	if err != nil {
		t.Fatal(err)
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
	st := p.Stats()
	if st.VerticesAssigned != 8 {
		t.Fatalf("stats vertices = %d, want 8", st.VerticesAssigned)
	}
	if st.EdgesObserved != g.NumEdges() {
		t.Fatalf("stats edges = %d, want %d", st.EdgesObserved, g.NumEdges())
	}
}

func TestSquareKeptWhole(t *testing.T) {
	g := graph.Fig1Graph()
	p, err := New(baseConfig(8, 2), fig1Trie(t))
	if err != nil {
		t.Fatal(err)
	}
	elems, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Run(stream.NewSliceSource(elems))
	if err != nil {
		t.Fatal(err)
	}
	square := []graph.VertexID{1, 2, 5, 6}
	p0 := a.Get(square[0])
	for _, v := range square {
		if a.Get(v) != p0 {
			t.Fatalf("square vertex %d on %d, want %d", v, a.Get(v), p0)
		}
	}
	if p.Stats().MotifGroups == 0 {
		t.Fatal("at least one motif group should have been assigned")
	}
}

func TestDisableMotifsNeverGroups(t *testing.T) {
	g := graph.Fig1Graph()
	cfg := baseConfig(8, 2)
	cfg.DisableMotifs = true
	p, err := New(cfg, fig1Trie(t))
	if err != nil {
		t.Fatal(err)
	}
	elems, _ := stream.FromGraph(g, stream.TemporalOrder, nil)
	if _, err := p.Run(stream.NewSliceSource(elems)); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.MotifGroups != 0 || st.GroupedVertices != 0 {
		t.Fatalf("motif grouping should be disabled: %+v", st)
	}
	if st.SingletonVertices != 8 {
		t.Fatalf("all vertices should be singletons: %+v", st)
	}
	if p.Name() != "loom-nomotifs" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestAddVertexTwiceRejected(t *testing.T) {
	p, err := New(baseConfig(4, 2), emptyTrie())
	if err != nil {
		t.Fatal(err)
	}
	// Window size 8 > 4 vertices: nothing evicted until Finish.
	if err := p.AddVertex(1, "a"); err != nil {
		t.Fatal(err)
	}
	p.Finish()
	if err := p.AddVertex(1, "a"); err == nil {
		t.Fatal("re-adding an assigned vertex should error")
	}
}

func TestAddEdgeUnknownEndpoint(t *testing.T) {
	p, err := New(baseConfig(4, 2), emptyTrie())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddVertex(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(1, 99); err == nil {
		t.Fatal("edge to unseen vertex should error")
	}
}

func TestDeferredEdgeCounted(t *testing.T) {
	cfg := baseConfig(6, 2)
	cfg.WindowSize = 2
	p, err := New(cfg, emptyTrie())
	if err != nil {
		t.Fatal(err)
	}
	// Fill window, force eviction of 1, then send edge (1,3).
	mustAdd(t, p, 1, "a")
	mustAdd(t, p, 2, "a")
	mustAdd(t, p, 3, "a") // evicts 1
	if err := p.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if p.Stats().EdgesDeferred != 1 {
		t.Fatalf("deferred = %d, want 1", p.Stats().EdgesDeferred)
	}
	p.Finish()
}

func mustAdd(t *testing.T, p *Partitioner, v graph.VertexID, l graph.Label) {
	t.Helper()
	if err := p.AddVertex(v, l); err != nil {
		t.Fatal(err)
	}
}

func TestConsumeDispatch(t *testing.T) {
	p, err := New(baseConfig(4, 2), emptyTrie())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Consume(stream.Element{Kind: stream.VertexElement, V: 1, Label: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Consume(stream.Element{Kind: stream.VertexElement, V: 2, Label: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Consume(stream.Element{Kind: stream.EdgeElement, V: 1, U: 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Consume(stream.Element{Kind: 99}); err == nil {
		t.Fatal("unknown element kind should error")
	}
}

func TestSplitOverlapsUsesLargestMatchOnly(t *testing.T) {
	// A chain a-b-c-d (q3's motif) in a window; with SplitOverlaps the
	// assignment group for the evicted vertex is its largest single match,
	// not the transitive closure. Build two overlapping abc/bcd motifs
	// via a 5-chain a-b-c-d + extra c (chain abcdc is not one motif).
	cfg := baseConfig(8, 2)
	cfg.SplitOverlaps = true
	p, err := New(cfg, fig1Trie(t))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Path("a", "b", "c", "d")
	elems, _ := stream.FromGraph(g, stream.TemporalOrder, nil)
	a, err := p.Run(stream.NewSliceSource(elems))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 4 {
		t.Fatalf("assigned %d, want 4", a.Len())
	}
	// The whole abcd chain is itself a q3 motif, so even the largest
	// single match spans all 4: they must be co-located.
	p0 := a.Get(0)
	for v := graph.VertexID(1); v < 4; v++ {
		if a.Get(v) != p0 {
			t.Fatalf("chain vertex %d on %d, want %d", v, a.Get(v), p0)
		}
	}
}

func TestBalanceRespectedUnderGrouping(t *testing.T) {
	// Many disjoint ab edges: groups of 2; partitions should stay balanced
	// because LDG's capacity weight penalises overfull targets.
	tr := fig1Trie(t)
	n := 40
	cfg := Config{
		Partition:  partition.Config{K: 4, ExpectedVertices: n, Slack: 1.2, Seed: 9},
		WindowSize: 4,
		Threshold:  0.3,
	}
	p, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	for i := 0; i < n; i += 2 {
		g.AddVertex(graph.VertexID(i), "a")
		g.AddVertex(graph.VertexID(i+1), "b")
		if err := g.AddEdge(graph.VertexID(i), graph.VertexID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	elems, _ := stream.FromGraph(g, stream.TemporalOrder, nil)
	a, err := p.Run(stream.NewSliceSource(elems))
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 4; pid++ {
		if s := a.Size(partition.ID(pid)); s > 14 {
			t.Fatalf("partition %d holds %d of %d vertices", pid, s, n)
		}
	}
	// Every ab pair must be co-located (each is a frequent motif).
	for i := 0; i < n; i += 2 {
		if a.Get(graph.VertexID(i)) != a.Get(graph.VertexID(i+1)) {
			t.Fatalf("pair (%d,%d) split", i, i+1)
		}
	}
}

func TestPropertyLoomAssignsAllUnderAnyOrder(t *testing.T) {
	tr := fig1Trie(t)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random graph over the workload alphabet.
		n := 10 + r.Intn(40)
		g := graph.New()
		alphabet := []graph.Label{"a", "b", "c", "d"}
		for i := 0; i < n; i++ {
			g.AddVertex(graph.VertexID(i), alphabet[r.Intn(4)])
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.1 {
					if err := g.AddEdge(graph.VertexID(i), graph.VertexID(j)); err != nil {
						return false
					}
				}
			}
		}
		orders := []stream.Order{stream.RandomOrder, stream.BFSOrdering, stream.AdversarialOrder, stream.TemporalOrder}
		o := orders[r.Intn(len(orders))]
		elems, err := stream.FromGraph(g, o, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return false
		}
		cfg := Config{
			Partition:  partition.Config{K: 2 + r.Intn(3), ExpectedVertices: n, Slack: 1.3, Seed: seed},
			WindowSize: 1 + r.Intn(16),
			Threshold:  0.25,
		}
		p, err := New(cfg, tr)
		if err != nil {
			return false
		}
		a, err := p.Run(stream.NewSliceSource(elems))
		if err != nil {
			return false
		}
		if a.Len() != n {
			return false
		}
		// Load accounting is consistent.
		sum := 0
		for _, s := range a.Sizes() {
			sum += s
		}
		return sum == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLoomSteadyStateAllocs pins the allocation budget of the whole LOOM
// element path — window, tracker (tryExtend, reexpand, the cap path),
// GroupFor, the neighbour arena and group LDG — on the stream shape that
// loads it: a locality-0.5 community stream through a 256-vertex window
// against the hot-mix trie. After a warm-up that grows the slab, the
// scratch buffers and the memo, consuming further elements may allocate at
// most 2 times per evicted vertex (what is left is the amortised growth of
// the assignment and the interners as the vertex population grows; the
// map-backed tracker spent 80 here).
func TestLoomSteadyStateAllocs(t *testing.T) {
	const n, warm, perRun = 24 * benchWindow, 8 * benchWindow, 2 * benchWindow
	elems := communityStream(n)
	p, err := New(communityConfig(n), hotMixTrie(t))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	consume := func(vertices int) {
		for ; next < len(elems); next++ {
			if el := elems[next]; el.Kind == stream.VertexElement {
				if vertices == 0 {
					return
				}
				vertices--
			}
			if err := p.Consume(elems[next]); err != nil {
				t.Fatal(err)
			}
		}
	}
	consume(warm)
	before := p.Stats()
	const runs = (n-warm)/perRun - 1 // AllocsPerRun makes one extra warm-up call
	allocs := testing.AllocsPerRun(runs, func() { consume(perRun) })
	st := p.Stats()
	evicted := float64(st.VerticesAssigned-before.VerticesAssigned) / float64(runs+1)
	if st.GroupedVertices == before.GroupedVertices || st.Tracker.MatchesExtended == before.Tracker.MatchesExtended ||
		st.Tracker.MatchesDropped == before.Tracker.MatchesDropped {
		t.Fatalf("measured stretch never grouped, grew or capped a match: %+v", st)
	}
	perVertex := allocs / evicted
	t.Logf("%.0f allocs per %.0f evicted vertices = %.3f allocs/vertex", allocs, evicted, perVertex)
	if perVertex > 2 {
		t.Fatalf("LOOM steady state allocates %.2f times per evicted vertex, budget 2", perVertex)
	}
}

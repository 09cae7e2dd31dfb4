package pattern

import (
	"testing"

	"loom/internal/graph"
	"loom/internal/motif"
	"loom/internal/signature"
)

// fig1Trie builds the TPSTry++ for the paper's Figure 1 workload.
func fig1Trie(t *testing.T) *motif.Trie {
	t.Helper()
	f := signature.NewFactoryForAlphabet([]graph.Label{"a", "b", "c", "d"})
	tr := motif.New(f, motif.Options{MaxMotifVertices: 4})
	for _, q := range []struct {
		id string
		g  *graph.Graph
	}{
		{"q1", graph.Cycle("a", "b", "a", "b")},
		{"q2", graph.Path("a", "b", "c")},
		{"q3", graph.Path("a", "b", "c", "d")},
	} {
		if err := tr.AddQuery(q.id, q.g, 1); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// windowWith builds a window-resident graph and returns it.
func windowWith(t *testing.T, labels map[graph.VertexID]graph.Label, edges []graph.Edge) *graph.Graph {
	t.Helper()
	w := graph.New()
	for v, l := range labels {
		w.AddVertex(v, l)
	}
	for _, e := range edges {
		if err := w.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestObserveEdgeCreatesMatch(t *testing.T) {
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0.3})
	w := windowWith(t, map[graph.VertexID]graph.Label{1: "a", 2: "b"}, []graph.Edge{{U: 1, V: 2}})
	if err := tk.ObserveEdge(1, 2, w); err != nil {
		t.Fatal(err)
	}
	ms := tk.MatchesContaining(1)
	if len(ms) != 1 {
		t.Fatalf("matches containing 1 = %d, want 1", len(ms))
	}
	if ms[0].Size() != 2 {
		t.Fatalf("match size = %d, want 2", ms[0].Size())
	}
	if got := tk.ActiveMatches(); got != 1 {
		t.Fatalf("active matches = %d, want 1", got)
	}
}

func TestObserveEdgeValidation(t *testing.T) {
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0})
	w := windowWith(t, map[graph.VertexID]graph.Label{1: "a"}, nil)
	if err := tk.ObserveEdge(1, 2, w); err == nil {
		t.Fatal("missing endpoint should error")
	}
	w.AddVertex(2, "b")
	if err := tk.ObserveEdge(1, 2, w); err == nil {
		t.Fatal("edge not in window graph should error")
	}
}

func TestMatchGrowsAlongPath(t *testing.T) {
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0.3})
	w := graph.New()
	w.AddVertex(1, "a")
	w.AddVertex(2, "b")
	w.AddVertex(3, "c")
	mustAddEdge(t, w, 1, 2)
	if err := tk.ObserveEdge(1, 2, w); err != nil {
		t.Fatal(err)
	}
	mustAddEdge(t, w, 2, 3)
	if err := tk.ObserveEdge(2, 3, w); err != nil {
		t.Fatal(err)
	}
	// Expect matches: the original ab (1,2) retained, plus its growth abc
	// (1,2,3). A separate bc sub-match is not created — the edge extended
	// an existing match, so no re-expansion is needed and bc is subsumed.
	var sizes []int
	for _, m := range tk.MatchesContaining(2) {
		sizes = append(sizes, m.Size())
	}
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 2 {
		t.Fatalf("match sizes at 2 = %v, want [3 2]", sizes)
	}
}

func mustAddEdge(t *testing.T, g *graph.Graph, u, v graph.VertexID) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

func TestSquareMotifDetected(t *testing.T) {
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0.3})
	w := graph.New()
	for v, l := range map[graph.VertexID]graph.Label{1: "a", 2: "b", 5: "b", 6: "a"} {
		w.AddVertex(v, l)
	}
	for _, e := range []graph.Edge{{U: 1, V: 2}, {U: 2, V: 6}, {U: 5, V: 6}, {U: 1, V: 5}} {
		mustAddEdge(t, w, e.U, e.V)
		if err := tk.ObserveEdge(e.U, e.V, w); err != nil {
			t.Fatal(err)
		}
	}
	// The full square must be among the matches.
	found := false
	for _, m := range tk.MatchesContaining(1) {
		if m.Size() == 4 && len(m.Edges()) == 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("square motif not detected")
	}
	// Group closure spans all four vertices.
	g := tk.GroupFor(1)
	if len(g) != 4 {
		t.Fatalf("group = %v, want 4 vertices", g)
	}
}

func TestFig3Reexpansion(t *testing.T) {
	// The scenario of Figure 3: window holds a-b-c (matched as abc motif),
	// then a second c' attaches to b, forming S' = abc + c'. S' is not a
	// motif, so naive incremental matching would discard c'; re-expansion
	// must recover the second distinct abc instance {a,b,c'}.
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0.3})
	w := graph.New()
	w.AddVertex(1, "a")
	w.AddVertex(2, "b")
	w.AddVertex(3, "c")
	mustAddEdge(t, w, 1, 2)
	if err := tk.ObserveEdge(1, 2, w); err != nil {
		t.Fatal(err)
	}
	mustAddEdge(t, w, 2, 3)
	if err := tk.ObserveEdge(2, 3, w); err != nil {
		t.Fatal(err)
	}

	// Second c arrives, attached to b.
	w.AddVertex(4, "c")
	mustAddEdge(t, w, 2, 4)
	if err := tk.ObserveEdge(2, 4, w); err != nil {
		t.Fatal(err)
	}

	// The bc' and (via re-expansion or growth) an abc' match must exist.
	var got3 int
	for _, m := range tk.MatchesContaining(4) {
		if m.Size() == 3 {
			got3++
			vs := m.Vertices()
			if vs[0] != 1 || vs[1] != 2 || vs[2] != 4 {
				t.Fatalf("3-match vertices = %v, want [1 2 4]", vs)
			}
		}
	}
	if got3 != 1 {
		t.Fatalf("abc' matches containing c' = %d, want 1", got3)
	}
	// The group containing c' must include the original abc too (shared
	// substructure via vertex 2).
	grp := tk.GroupFor(4)
	if len(grp) != 4 {
		t.Fatalf("group = %v, want {1,2,3,4}", grp)
	}
}

func TestFig3StreamCountsSeededAndGrownMatches(t *testing.T) {
	// The Figure 3 stream registers three matches: ab is seeded by
	// re-expansion from the first edge, abc grows out of ab when b-c arrives,
	// and abc' grows out of ab when the second c attaches to b. Seeded
	// matches count in MatchesCreated, grown ones in MatchesExtended, and
	// together they count every registered match exactly once.
	tk := NewTracker(fig1Trie(t), Options{Threshold: 0.3})
	w := graph.New()
	for v, l := range map[graph.VertexID]graph.Label{1: "a", 2: "b", 3: "c", 4: "c"} {
		w.AddVertex(v, l)
	}
	for _, e := range []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 2, V: 4}} {
		mustAddEdge(t, w, e.U, e.V)
		if err := tk.ObserveEdge(e.U, e.V, w); err != nil {
			t.Fatal(err)
		}
	}
	st := tk.Stats()
	if st.MatchesCreated != 1 || st.MatchesExtended != 2 || st.Reexpansions != 1 {
		t.Fatalf("stats = %+v, want 1 created, 2 extended, 1 re-expansion", st)
	}
	if got := tk.ActiveMatches(); got != st.MatchesCreated+st.MatchesExtended-st.MatchesDropped {
		t.Fatalf("active matches = %d, want created+extended-dropped = %d", got, st.MatchesCreated+st.MatchesExtended-st.MatchesDropped)
	}
}

func TestSameLabelEdgeWithoutRootProbesOnce(t *testing.T) {
	// Regression: seeding tried both orientations of an edge even when the
	// endpoint labels were equal, repeating the identical failed root probe.
	// The workload has no motif containing e, so e has no root.
	tr := fig1Trie(t)
	tr.Factory().LabelID("e") // known to the factory, absent from every motif
	tk := NewTracker(tr, Options{Threshold: 0.3})
	w := windowWith(t, map[graph.VertexID]graph.Label{1: "e", 2: "e"}, []graph.Edge{{U: 1, V: 2}})
	if err := tk.ObserveEdge(1, 2, w); err != nil {
		t.Fatal(err)
	}
	if tk.ActiveMatches() != 0 || len(tk.MatchesContaining(1)) != 0 || len(tk.MatchesContaining(2)) != 0 {
		t.Fatalf("ee edge left %d matches in the tracker, want none", tk.ActiveMatches())
	}
	if tk.rootProbes != 1 {
		t.Fatalf("same-label edge made %d root probes, want 1", tk.rootProbes)
	}
	// Distinct labels without roots still try both orientations.
	tr.Factory().LabelID("f")
	tk = NewTracker(tr, Options{Threshold: 0.3})
	w = windowWith(t, map[graph.VertexID]graph.Label{1: "e", 2: "f"}, []graph.Edge{{U: 1, V: 2}})
	if err := tk.ObserveEdge(1, 2, w); err != nil {
		t.Fatal(err)
	}
	if tk.rootProbes != 2 {
		t.Fatalf("distinct-label edge made %d root probes, want 2", tk.rootProbes)
	}
}

func TestReexpansionFromColdEdge(t *testing.T) {
	// No prior matches at all (tracker created after edges existed): a new
	// edge must seed a match via re-expansion over the window graph.
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0.3})
	w := graph.New()
	w.AddVertex(1, "a")
	w.AddVertex(2, "b")
	w.AddVertex(3, "c")
	mustAddEdge(t, w, 1, 2)
	mustAddEdge(t, w, 2, 3)
	// Tracker never saw (1,2); observe only (2,3).
	if err := tk.ObserveEdge(2, 3, w); err != nil {
		t.Fatal(err)
	}
	// Re-expansion should have grown through (1,2) to the full abc.
	found := false
	for _, m := range tk.MatchesContaining(3) {
		if m.Size() == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("re-expansion should recover abc from a cold edge")
	}
	if tk.Stats().Reexpansions == 0 {
		t.Fatal("re-expansion counter should have incremented")
	}
}

func TestNonMotifEdgeIgnored(t *testing.T) {
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0.3})
	// d-d edges never occur in the workload.
	w := windowWith(t, map[graph.VertexID]graph.Label{1: "d", 2: "d"}, []graph.Edge{{U: 1, V: 2}})
	if err := tk.ObserveEdge(1, 2, w); err != nil {
		t.Fatal(err)
	}
	if tk.ActiveMatches() != 0 {
		t.Fatalf("dd edge should produce no matches, got %d", tk.ActiveMatches())
	}
}

func TestThresholdFiltersMotifs(t *testing.T) {
	tr := fig1Trie(t)
	// cd has p = 1/3; with threshold 0.5 it must not be tracked.
	tk := NewTracker(tr, Options{Threshold: 0.5})
	w := windowWith(t, map[graph.VertexID]graph.Label{1: "c", 2: "d"}, []graph.Edge{{U: 1, V: 2}})
	if err := tk.ObserveEdge(1, 2, w); err != nil {
		t.Fatal(err)
	}
	if tk.ActiveMatches() != 0 {
		t.Fatal("cd is below threshold and must not be tracked")
	}
	// ab has p = 1.0 and must be tracked.
	w2 := windowWith(t, map[graph.VertexID]graph.Label{1: "a", 2: "b"}, []graph.Edge{{U: 1, V: 2}})
	if err := tk.ObserveEdge(1, 2, w2); err != nil {
		t.Fatal(err)
	}
	if tk.ActiveMatches() != 1 {
		t.Fatal("ab is above threshold and must be tracked")
	}
}

func TestRemoveVertexClearsMatches(t *testing.T) {
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0.3})
	w := windowWith(t, map[graph.VertexID]graph.Label{1: "a", 2: "b"}, []graph.Edge{{U: 1, V: 2}})
	if err := tk.ObserveEdge(1, 2, w); err != nil {
		t.Fatal(err)
	}
	tk.RemoveVertex(1)
	if tk.ActiveMatches() != 0 {
		t.Fatal("removing a vertex must drop its matches")
	}
	if len(tk.MatchesContaining(2)) != 0 {
		t.Fatal("shared match must be gone for the other endpoint too")
	}
	if got := tk.GroupFor(2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("GroupFor(2) = %v, want [2]", got)
	}
}

func TestDuplicateMatchNotRegistered(t *testing.T) {
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0.3})
	w := windowWith(t, map[graph.VertexID]graph.Label{1: "a", 2: "b"}, []graph.Edge{{U: 1, V: 2}})
	if err := tk.ObserveEdge(1, 2, w); err != nil {
		t.Fatal(err)
	}
	// Observing the same edge again must not duplicate the match.
	if err := tk.ObserveEdge(1, 2, w); err != nil {
		t.Fatal(err)
	}
	if tk.ActiveMatches() != 1 {
		t.Fatalf("active = %d, want 1 (dedup)", tk.ActiveMatches())
	}
}

func TestMatchCapEnforced(t *testing.T) {
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0.3, MaxMatchesPerVertex: 2})
	// Star of b with many a's: each edge is an ab match through b.
	w := graph.New()
	w.AddVertex(0, "b")
	for i := 1; i <= 5; i++ {
		w.AddVertex(graph.VertexID(i), "a")
		mustAddEdge(t, w, 0, graph.VertexID(i))
		if err := tk.ObserveEdge(0, graph.VertexID(i), w); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(tk.MatchesContaining(0)); got > 2 {
		t.Fatalf("matches at hub = %d, want <= 2 (cap)", got)
	}
	if tk.Stats().MatchesDropped == 0 {
		t.Fatal("cap enforcement should have dropped matches")
	}
}

func TestVerifyModeAcceptsTrueMatches(t *testing.T) {
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0.3, Verify: true})
	w := graph.New()
	w.AddVertex(1, "a")
	w.AddVertex(2, "b")
	w.AddVertex(3, "c")
	mustAddEdge(t, w, 1, 2)
	if err := tk.ObserveEdge(1, 2, w); err != nil {
		t.Fatal(err)
	}
	mustAddEdge(t, w, 2, 3)
	if err := tk.ObserveEdge(2, 3, w); err != nil {
		t.Fatal(err)
	}
	// True matches must survive verification.
	found := false
	for _, m := range tk.MatchesContaining(2) {
		if m.Size() == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("verification must not reject genuine matches")
	}
	if tk.Stats().VerifyRejections != 0 {
		t.Fatalf("unexpected rejections: %d", tk.Stats().VerifyRejections)
	}
}

func TestGroupForTransitiveClosure(t *testing.T) {
	tr := fig1Trie(t)
	tk := NewTracker(tr, Options{Threshold: 0.3})
	// Chain a-b-c-d: abc and bcd overlap on {b,c}; abcd (4 vertices) also
	// matches (q3). Group of a must reach d.
	w := graph.New()
	labels := []graph.Label{"a", "b", "c", "d"}
	for i, l := range labels {
		w.AddVertex(graph.VertexID(i+1), l)
	}
	for i := 1; i < 4; i++ {
		mustAddEdge(t, w, graph.VertexID(i), graph.VertexID(i+1))
		if err := tk.ObserveEdge(graph.VertexID(i), graph.VertexID(i+1), w); err != nil {
			t.Fatal(err)
		}
	}
	grp := tk.GroupFor(1)
	if len(grp) != 4 {
		t.Fatalf("group = %v, want the whole chain", grp)
	}
}

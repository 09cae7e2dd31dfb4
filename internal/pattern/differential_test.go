package pattern

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"loom/internal/graph"
	"loom/internal/motif"
	"loom/internal/query"
	"loom/internal/signature"
)

// hotMixTrie captures the repository benchmark's hot-mix workload: paths,
// stars and cycles of up to four vertices over a b c d, with a long tail of
// light patterns.
func hotMixTrie(t testing.TB) *motif.Trie {
	t.Helper()
	alphabet := []graph.Label{"a", "b", "c", "d"}
	w, err := query.ResolveWorkload("../../perfbench/_bench/testdata/hotmix.txt", 0, alphabet, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := motif.New(signature.NewFactoryForAlphabet(alphabet), motif.Options{})
	if err := w.BuildTrie(tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// trackerPair drives the live tracker and the frozen map-backed reference
// with the same operations over one window graph.
type trackerPair struct {
	t    *testing.T
	tag  string
	w    *graph.Graph
	live *Tracker
	ref  *refTracker
	pool []graph.VertexID // every vertex ID the schedule may use
}

// renderState renders everything observable about a tracker — per pool vertex the
// matches containing it in MatchesContaining order (ID, motif, vertices,
// edges) and its GroupFor closure, then the live count and the counters —
// through the accessors the two implementations share.
func renderState[M interface {
	comparable
	Vertices() []graph.VertexID
	Edges() []graph.Edge
}](pool []graph.VertexID, matches func(graph.VertexID) []M, id func(M) int64, node func(M) *motif.Node,
	group func(graph.VertexID) []graph.VertexID, active int, stats Stats) string {
	var sb strings.Builder
	for _, v := range pool {
		fmt.Fprintf(&sb, "%d:", v)
		for _, m := range matches(v) {
			fmt.Fprintf(&sb, " #%d/n%d%v%v", id(m), node(m).ID, m.Vertices(), m.Edges())
		}
		fmt.Fprintf(&sb, " group=%v\n", group(v))
	}
	fmt.Fprintf(&sb, "active=%d stats=%+v\n", active, stats)
	return sb.String()
}

func (p *trackerPair) check(op string) {
	p.t.Helper()
	got := renderState(p.pool, p.live.MatchesContaining,
		func(m *Match) int64 { return m.ID }, func(m *Match) *motif.Node { return m.Node },
		p.live.GroupFor, p.live.ActiveMatches(), p.live.Stats())
	want := renderState(p.pool, p.ref.MatchesContaining,
		func(m *refMatch) int64 { return m.ID }, func(m *refMatch) *motif.Node { return m.Node },
		p.ref.GroupFor, p.ref.ActiveMatches(), p.ref.Stats())
	if got != want {
		p.t.Fatalf("%s: after %s the trackers diverge\n--- live ---\n%s--- reference ---\n%s", p.tag, op, got, want)
	}
}

func (p *trackerPair) observe(u, v graph.VertexID) {
	p.t.Helper()
	if err := p.w.AddEdge(u, v); err != nil {
		p.t.Fatal(err)
	}
	errLive, errRef := p.live.ObserveEdge(u, v, p.w), p.ref.ObserveEdge(u, v, p.w)
	if errLive != nil || errRef != nil {
		p.t.Fatalf("%s: ObserveEdge(%d,%d): live %v, reference %v", p.tag, u, v, errLive, errRef)
	}
}

func (p *trackerPair) removeVertex(v graph.VertexID) {
	p.live.RemoveVertex(v)
	p.ref.RemoveVertex(v)
}

// TestTrackerMatchesMapReference is the differential property test of the
// flat tracker: seeded random schedules of edge arrivals, edge and vertex
// deletions and whole-group evictions run through the live Tracker and the
// frozen map-backed reference, and after every operation the two must agree
// on every match (ID, motif node, vertex and edge sets), on GroupFor and
// MatchesContaining order for every vertex, and on Stats. The cap is tiny so
// nearly every registration takes the enforceCaps drop path; vertices leave
// and re-enter the window graph (recycling its handles, with fresh labels),
// and evictions recycle a handle before RemoveVertex runs, as LOOM's window
// does.
func TestTrackerMatchesMapReference(t *testing.T) {
	// e is in no motif and is interned after the trie was built.
	alphabet := []graph.Label{"a", "b", "c", "d", "a", "b", "c", "d", "e"}
	var total Stats
	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		trie := fig1Trie(t)
		if seed%2 == 0 {
			trie = hotMixTrie(t)
		}
		opts := Options{Threshold: 0.05, MaxMatchesPerVertex: 1 + rng.Intn(3), Verify: seed%5 == 0}
		if seed%3 == 0 {
			opts.Threshold = 0.3
		}
		// Half the seeds share the factory's label interner with the window
		// graph (LOOM's configuration), half intern label strings.
		w := graph.New()
		if seed%4 < 2 {
			w = graph.NewWithLabels(trie.Factory().Labels())
		}
		p := &trackerPair{
			t: t, tag: fmt.Sprintf("seed %d (%+v)", seed, opts), w: w,
			live: NewTracker(trie, opts), ref: newRefTracker(trie, opts),
		}
		// Small IDs stay on the vertex index's direct path, large and
		// negative ones take its sparse path.
		for i := 0; i < 9; i++ {
			p.pool = append(p.pool, graph.VertexID(i))
		}
		p.pool = append(p.pool, 70001, 70002, 70003, 1<<40, -5)
		randV := func() graph.VertexID { return p.pool[rng.Intn(len(p.pool))] }
		ensure := func(v graph.VertexID) {
			if !w.HasVertex(v) {
				w.AddVertex(v, alphabet[rng.Intn(len(alphabet))])
			}
		}

		for step := 0; step < 300; step++ {
			switch x := rng.Float64(); {
			case x < 0.70: // edge arrival
				u, v := randV(), randV()
				if u == v {
					continue
				}
				ensure(u)
				ensure(v)
				if w.HasEdge(u, v) {
					continue
				}
				p.observe(u, v)
				p.check(fmt.Sprintf("step %d: observe {%d,%d}", step, u, v))
			case x < 0.80: // edge deletion
				es := w.Edges()
				if len(es) == 0 {
					continue
				}
				e := es[rng.Intn(len(es))]
				w.RemoveEdge(e.U, e.V)
				p.live.RemoveEdge(e.V, e.U)
				p.ref.RemoveEdge(e.V, e.U)
				p.check(fmt.Sprintf("step %d: remove edge %v", step, e))
			case x < 0.87: // vertex deletion
				v := randV()
				w.RemoveVertex(v)
				p.removeVertex(v)
				p.check(fmt.Sprintf("step %d: remove vertex %d", step, v))
			default: // group eviction, as core.assignEvicted performs it
				v := randV()
				if !w.HasVertex(v) {
					continue
				}
				// The window evicts v and admits the arrival that displaced
				// it — reusing v's handle — before the tracker hears of it.
				w.RemoveVertex(v)
				ensure(randV())
				group := slices.Clone(p.live.GroupFor(v))
				if want := p.ref.GroupFor(v); !slices.Equal(group, want) {
					t.Fatalf("%s step %d: GroupFor(%d) = %v, reference %v", p.tag, step, v, group, want)
				}
				for _, m := range group {
					if m != v {
						w.RemoveVertex(m)
					}
				}
				for _, m := range group {
					p.removeVertex(m)
				}
				p.check(fmt.Sprintf("step %d: evict group %v of %d", step, group, v))
			}
		}
		st := p.live.Stats()
		total.MatchesCreated += st.MatchesCreated
		total.MatchesExtended += st.MatchesExtended
		total.MatchesDropped += st.MatchesDropped
		total.VerifyRejections += st.VerifyRejections
	}
	// Guard against a vacuous run: every path the rewrite touched must have
	// been taken many times over the seeds.
	t.Logf("over all seeds: %+v", total)
	if total.MatchesCreated < 1000 || total.MatchesExtended < 1000 || total.MatchesDropped < 1000 {
		t.Fatalf("schedules too quiet to prove anything: %+v", total)
	}
}

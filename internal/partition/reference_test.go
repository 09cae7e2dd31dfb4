package partition

import (
	"math"
	"math/rand"
	"testing"

	"loom/internal/gen"
	"loom/internal/graph"
	"loom/internal/stream"
)

// This file keeps a faithful re-implementation of the pre-refactor
// map-backed partitioners and checks, property-test style, that the dense
// slice-backed engine places every vertex of seeded random graphs
// identically — same partitions, same rng consumption, same sizes.

// refAssignment is the old map-backed assignment.
type refAssignment struct {
	k     int
	place map[graph.VertexID]ID
	sizes []int
}

func newRefAssignment(k int) *refAssignment {
	return &refAssignment{k: k, place: make(map[graph.VertexID]ID), sizes: make([]int, k)}
}

func (a *refAssignment) get(v graph.VertexID) ID {
	if p, ok := a.place[v]; ok {
		return p
	}
	return Unassigned
}

func (a *refAssignment) set(v graph.VertexID, p ID) {
	if old, ok := a.place[v]; ok {
		a.sizes[old]--
	}
	a.place[v] = p
	a.sizes[p]++
}

// refLDG is the old map-backed Linear Deterministic Greedy.
type refLDG struct {
	cfg Config
	a   *refAssignment
	rng *rand.Rand
}

func newRefLDG(cfg Config) *refLDG {
	return &refLDG{cfg: cfg, a: newRefAssignment(cfg.K), rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (g *refLDG) weight(size, add int) float64 {
	c := g.cfg.Capacity()
	w := 1 - (float64(size)+float64(add)/2)/c
	if w < 0 {
		return 0
	}
	return w
}

func (g *refLDG) place(v graph.VertexID, neighbors []graph.VertexID) ID {
	inGroup := map[graph.VertexID]struct{}{v: {}}
	links := make([]float64, g.cfg.K)
	for _, n := range neighbors {
		if _, self := inGroup[n]; self {
			continue
		}
		if p := g.a.get(n); p != Unassigned {
			links[p]++
		}
	}
	bestScore := math.Inf(-1)
	var best []ID
	for p := 0; p < g.cfg.K; p++ {
		score := links[p] * g.weight(g.a.sizes[p], 1)
		if score > bestScore {
			bestScore = score
			best = append(best[:0], ID(p))
		} else if score == bestScore {
			best = append(best, ID(p))
		}
	}
	var chosen ID
	if len(best) == 1 {
		chosen = best[0]
	} else {
		minSize := math.MaxInt
		var leastLoaded []ID
		for _, p := range best {
			s := g.a.sizes[p]
			if s < minSize {
				minSize = s
				leastLoaded = append(leastLoaded[:0], p)
			} else if s == minSize {
				leastLoaded = append(leastLoaded, p)
			}
		}
		chosen = leastLoaded[g.rng.Intn(len(leastLoaded))]
	}
	g.a.set(v, chosen)
	return chosen
}

// refFennel is the old map-backed Fennel (with the fixed saturated-fallback
// tie-breaking, which predates the dense refactor).
type refFennel struct {
	cfg   Config
	alpha float64
	gamma float64
	a     *refAssignment
	rng   *rand.Rand
}

func newRefFennel(cfg FennelConfig) *refFennel {
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 1.5
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		n := float64(cfg.ExpectedVertices)
		alpha = math.Sqrt(float64(cfg.K)) * float64(cfg.ExpectedEdges) / math.Pow(n, 1.5)
	}
	return &refFennel{
		cfg:   cfg.Config,
		alpha: alpha,
		gamma: gamma,
		a:     newRefAssignment(cfg.K),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

func (f *refFennel) place(v graph.VertexID, neighbors []graph.VertexID) ID {
	links := make([]float64, f.cfg.K)
	for _, n := range neighbors {
		if p := f.a.get(n); p != Unassigned && int(p) < f.cfg.K {
			links[p]++
		}
	}
	cap := f.cfg.Capacity()
	bestScore := math.Inf(-1)
	var best []ID
	for p := 0; p < f.cfg.K; p++ {
		size := float64(f.a.sizes[p])
		if size+1 > cap && f.cfg.Slack > 0 {
			continue
		}
		score := links[p] - f.alpha*f.gamma*math.Pow(size, f.gamma-1)
		if score > bestScore {
			bestScore = score
			best = append(best[:0], ID(p))
		} else if score == bestScore {
			best = append(best, ID(p))
		}
	}
	if len(best) == 0 {
		minSize := math.MaxInt
		for p := 0; p < f.cfg.K; p++ {
			s := f.a.sizes[p]
			if s < minSize {
				minSize = s
				best = append(best[:0], ID(p))
			} else if s == minSize {
				best = append(best, ID(p))
			}
		}
	}
	p := best[f.rng.Intn(len(best))]
	f.a.set(v, p)
	return p
}

// referenceTrialGraph generates one random graph + stream order per trial.
func referenceTrialGraph(t *testing.T, trial int) (*graph.Graph, []graph.VertexID, int64) {
	t.Helper()
	seed := int64(1000 + trial)
	rng := rand.New(rand.NewSource(seed))
	lab := &gen.UniformLabeler{Alphabet: gen.DefaultAlphabet(4), Rand: rng}
	var g *graph.Graph
	var err error
	switch trial % 3 {
	case 0:
		g, err = gen.BarabasiAlbert(150+rng.Intn(150), 2, lab, rng)
	case 1:
		g, err = gen.ErdosRenyi(150+rng.Intn(150), 600, lab, rng)
	default:
		g, err = gen.PlantedPartitionDegrees(120+rng.Intn(120), 4, 8, 2, lab, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	order, err := stream.VertexOrder(g, stream.RandomOrder, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, order, seed
}

// TestDenseLDGMatchesMapReference streams seeded random graphs through the
// dense LDG and the map-backed reference and requires identical placements.
func TestDenseLDGMatchesMapReference(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		g, order, seed := referenceTrialGraph(t, trial)
		cfg := Config{K: 2 + trial%7, ExpectedVertices: g.NumVertices(), Slack: 1.0 + float64(trial%3)*0.1, Seed: seed}
		ldg, err := NewLDG(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefLDG(cfg)
		for _, v := range order {
			ns := g.Neighbors(v)
			got, want := ldg.Place(v, ns), ref.place(v, ns)
			if got != want {
				t.Fatalf("trial %d: LDG diverged at vertex %d: dense %d, reference %d", trial, v, got, want)
			}
		}
		for p := 0; p < cfg.K; p++ {
			if ldg.Assignment().Size(ID(p)) != ref.a.sizes[p] {
				t.Fatalf("trial %d: partition %d size %d, reference %d", trial, p, ldg.Assignment().Size(ID(p)), ref.a.sizes[p])
			}
		}
	}
}

// TestDenseFennelMatchesMapReference is the Fennel equivalent, including
// saturated streams (Slack 1.0) that hit the fallback path.
func TestDenseFennelMatchesMapReference(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		g, order, seed := referenceTrialGraph(t, trial)
		fcfg := FennelConfig{
			Config:        Config{K: 2 + trial%7, ExpectedVertices: g.NumVertices(), Slack: 1.0 + float64(trial%2)*0.15, Seed: seed},
			ExpectedEdges: g.NumEdges(),
		}
		fennel, err := NewFennel(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefFennel(fcfg)
		for _, v := range order {
			ns := g.Neighbors(v)
			got, want := fennel.Place(v, ns), ref.place(v, ns)
			if got != want {
				t.Fatalf("trial %d: Fennel diverged at vertex %d: dense %d, reference %d", trial, v, got, want)
			}
		}
	}
}

// TestDenseGroupPlacementMatchesReference checks PlaceGroup against a
// map-backed group scoring re-implementation on random groups.
func TestDenseGroupPlacementMatchesReference(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g, order, seed := referenceTrialGraph(t, trial)
		cfg := Config{K: 4, ExpectedVertices: g.NumVertices(), Slack: 1.2, Seed: seed}
		ldg, err := NewLDG(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefLDG(cfg)
		rng := rand.New(rand.NewSource(seed + 5))
		var arena NeighborLists
		for i := 0; i < len(order); {
			gs := 1 + rng.Intn(4)
			if i+gs > len(order) {
				gs = len(order) - i
			}
			group := order[i : i+gs]
			i += gs
			// The dense engine reads the flat arena, the reference its map.
			neighbors := make(map[graph.VertexID][]graph.VertexID, gs)
			arena.Reset(gs)
			for j, v := range group {
				neighbors[v] = g.Neighbors(v)
				arena.Set(j, neighbors[v], nil)
			}
			got := ldg.PlaceGroup(group, arena)
			want := refPlaceGroup(ref, group, neighbors)
			if got != want {
				t.Fatalf("trial %d: PlaceGroup diverged at group %v: dense %d, reference %d", trial, group, got, want)
			}
		}
	}
}

// refPlaceGroup is the old map-backed group scoring (paper footnote 1).
func refPlaceGroup(g *refLDG, group []graph.VertexID, neighbors map[graph.VertexID][]graph.VertexID) ID {
	inGroup := make(map[graph.VertexID]struct{}, len(group))
	for _, v := range group {
		inGroup[v] = struct{}{}
	}
	links := make([]float64, g.cfg.K)
	for _, v := range group {
		for _, n := range neighbors[v] {
			if _, self := inGroup[n]; self {
				continue
			}
			if p := g.a.get(n); p != Unassigned {
				links[p]++
			}
		}
	}
	add := len(group)
	bestScore := math.Inf(-1)
	var best []ID
	for p := 0; p < g.cfg.K; p++ {
		score := links[p] * g.weight(g.a.sizes[p], add)
		if score > bestScore {
			bestScore = score
			best = append(best[:0], ID(p))
		} else if score == bestScore {
			best = append(best, ID(p))
		}
	}
	var chosen ID
	if len(best) == 1 {
		chosen = best[0]
	} else {
		minSize := math.MaxInt
		var leastLoaded []ID
		for _, p := range best {
			s := g.a.sizes[p]
			if s < minSize {
				minSize = s
				leastLoaded = append(leastLoaded[:0], p)
			} else if s == minSize {
				leastLoaded = append(leastLoaded, p)
			}
		}
		chosen = leastLoaded[g.rng.Intn(len(leastLoaded))]
	}
	for _, v := range group {
		g.a.set(v, chosen)
	}
	return chosen
}

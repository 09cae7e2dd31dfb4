package partition

import (
	"fmt"
	"math"
	"math/rand"

	"loom/internal/graph"
)

// Hash is the workload- and structure-agnostic default of distributed graph
// systems: partition = id mod k. Perfectly balanced in expectation, blind
// to locality.
type Hash struct {
	cfg Config
	a   *Assignment
}

// NewHash returns a Hash partitioner.
func NewHash(cfg Config) (*Hash, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Hash{cfg: cfg, a: MustNewAssignment(cfg.K)}, nil
}

// Place implements Streaming.
func (h *Hash) Place(v graph.VertexID, _ []graph.VertexID) ID {
	// splitmix64-style finalisation: multiplication alone leaves the low
	// bits of sequential IDs structured (an odd-constant multiply is a
	// bijection on the low k bits), which would correlate the partition
	// with any ID-periodic property of the graph. The xor-shift cascade
	// mixes high bits down before reduction.
	x := uint64(v) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	p := ID(x % uint64(h.cfg.K))
	_ = h.a.Set(v, p)
	return p
}

// Assignment implements Streaming.
func (h *Hash) Assignment() *Assignment { return h.a }

// Name implements Streaming.
func (h *Hash) Name() string { return "hash" }

// Balanced places each vertex on the currently least-loaded partition,
// breaking ties uniformly at random. It ignores structure entirely.
type Balanced struct {
	cfg  Config
	a    *Assignment
	rng  *rand.Rand
	best []ID // scratch, reused across Place calls
}

// NewBalanced returns a Balanced partitioner.
func NewBalanced(cfg Config) (*Balanced, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Balanced{
		cfg:  cfg,
		a:    MustNewAssignment(cfg.K),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		best: make([]ID, 0, cfg.K),
	}, nil
}

// Place implements Streaming.
func (b *Balanced) Place(v graph.VertexID, _ []graph.VertexID) ID {
	best := append(b.best[:0], 0)
	for p := 1; p < b.cfg.K; p++ {
		switch {
		case b.a.Size(ID(p)) < b.a.Size(best[0]):
			best = append(best[:0], ID(p))
		case b.a.Size(ID(p)) == b.a.Size(best[0]):
			best = append(best, ID(p))
		}
	}
	b.best = best
	p := best[b.rng.Intn(len(best))]
	_ = b.a.Set(v, p)
	return p
}

// Assignment implements Streaming.
func (b *Balanced) Assignment() *Assignment { return b.a }

// Name implements Streaming.
func (b *Balanced) Name() string { return "balanced" }

// Chunking fills partitions sequentially: the first C vertices go to
// partition 0, the next C to partition 1, and so on. On temporally ordered
// streams of grown graphs this preserves accidental locality; on random
// orders it is as blind as hashing.
type Chunking struct {
	cfg   Config
	a     *Assignment
	next  int
	chunk int // ceil(Capacity()), hoisted out of the per-vertex hot path
}

// NewChunking returns a Chunking partitioner.
func NewChunking(cfg Config) (*Chunking, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	chunk := int(math.Ceil(cfg.Capacity()))
	if chunk < 1 {
		chunk = 1
	}
	return &Chunking{cfg: cfg, a: MustNewAssignment(cfg.K), chunk: chunk}, nil
}

// Place implements Streaming.
func (c *Chunking) Place(v graph.VertexID, _ []graph.VertexID) ID {
	p := ID((c.next / c.chunk) % c.cfg.K)
	c.next++
	_ = c.a.Set(v, p)
	return p
}

// Assignment implements Streaming.
func (c *Chunking) Assignment() *Assignment { return c.a }

// Name implements Streaming.
func (c *Chunking) Name() string { return "chunking" }

// greedyKind selects the capacity weighting of the greedy family.
type greedyKind int

const (
	unweightedGreedy greedyKind = iota
	linearGreedy
	exponentialGreedy
)

// Greedy is the deterministic greedy family of Stanton & Kliot: place v on
// the partition holding most of its neighbours, weighted by a capacity
// penalty. The linear weighting (1 - |P|/C) is LDG, the heuristic LOOM
// builds on; it reduces cut edges by up to 90% relative to hashing on
// power-law graphs.
type Greedy struct {
	cfg        Config
	kind       greedyKind
	a          *Assignment
	rng        *rand.Rand
	name       string
	prior      *Assignment
	selfWeight float64
	capacity   float64 // cfg.Capacity(), hoisted out of the scoring loop

	// Scoring scratch, reused across Place/PlaceGroup calls so steady-state
	// placement does not allocate.
	links       []float64 // per-partition link weight, len K
	best        []ID
	leastLoaded []ID
	// inGroupGen marks the current group's members: slot h (an assignment
	// handle) is in the group iff inGroupGen[h] == groupGen. Bumping the
	// generation clears the set in O(1).
	inGroupGen []uint32
	groupGen   uint32
}

// NewDeterministicGreedy returns the unweighted greedy heuristic
// (capacity-blind except for a hard cap, ties to least-loaded).
func NewDeterministicGreedy(cfg Config) (*Greedy, error) {
	return newGreedy(cfg, unweightedGreedy, "greedy")
}

// NewLDG returns the Linear Deterministic Greedy heuristic (paper §4.1).
func NewLDG(cfg Config) (*Greedy, error) {
	return newGreedy(cfg, linearGreedy, "ldg")
}

// NewExponentialGreedy returns the exponentially weighted greedy variant.
func NewExponentialGreedy(cfg Config) (*Greedy, error) {
	return newGreedy(cfg, exponentialGreedy, "expgreedy")
}

func newGreedy(cfg Config, kind greedyKind, name string) (*Greedy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Greedy{
		cfg:         cfg,
		kind:        kind,
		a:           MustNewAssignment(cfg.K),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		name:        name,
		capacity:    cfg.Capacity(),
		links:       make([]float64, cfg.K),
		best:        make([]ID, 0, cfg.K),
		leastLoaded: make([]ID, 0, cfg.K),
	}, nil
}

// weight returns the capacity penalty for a partition currently holding
// size vertices and about to receive add more.
func (g *Greedy) weight(size, add int) float64 {
	c := g.capacity
	switch g.kind {
	case linearGreedy:
		w := 1 - (float64(size)+float64(add)/2)/c
		if w < 0 {
			return 0
		}
		return w
	case exponentialGreedy:
		return 1 - math.Exp(float64(size)-c)
	default:
		return 1
	}
}

// SetPrior implements PriorAware: prev becomes the fallback placement for
// vertices not yet re-placed in the current pass (ReLDG), and a vertex's
// own previous partition contributes selfWeight to its link count, so
// placements stabilise across restreaming passes. selfWeight <= 0 defaults
// to 1. Prior placements outside [0, K) are ignored, so a restream may
// shrink k: vertices from dropped partitions simply carry no prior signal.
func (g *Greedy) SetPrior(prev *Assignment, selfWeight float64) {
	if selfWeight <= 0 {
		selfWeight = 1
	}
	g.prior = prev
	g.selfWeight = selfWeight
}

// effective returns n's partition for scoring: the current pass's placement
// when n has been re-placed, the prior pass's otherwise. Prior partitions
// beyond this heuristic's K (a shrinking restream) read as Unassigned.
//
//loom:hotpath
func (g *Greedy) effective(n graph.VertexID) ID {
	if p := g.a.Get(n); p != Unassigned {
		return p
	}
	if g.prior != nil {
		if p := g.prior.Get(n); int(p) < g.cfg.K {
			return p
		}
	}
	return Unassigned
}

// Place implements Streaming.
//
//loom:hotpath
func (g *Greedy) Place(v graph.VertexID, neighbors []graph.VertexID) ID {
	p := g.scoreOne(v, neighbors, nil)
	_ = g.a.Set(v, p)
	return p
}

// NeighborLists holds the neighbour lists of a vertex group back to back in
// one arena: list i belongs to the group's i-th member. LOOM refills one
// NeighborLists per motif-group eviction, so group placement allocates
// nothing once the arena has grown to the largest group seen. The zero
// value is an empty set of lists.
type NeighborLists struct {
	spans [][2]int32 // list i is ids[spans[i][0]:spans[i][1]]
	ids   []graph.VertexID
	old   [][2]int32 // Permute's scratch
}

// Reset empties the arena and sizes it for n lists, all empty until Set.
//
//loom:hotpath
func (l *NeighborLists) Reset(n int) {
	l.ids = l.ids[:0]
	l.spans = l.spans[:0]
	for i := 0; i < n; i++ {
		l.spans = append(l.spans, [2]int32{})
	}
}

// Set makes list i the concatenation of a and b (either may be nil), copied
// into the arena. Lists may be set in any order.
//
//loom:hotpath
func (l *NeighborLists) Set(i int, a, b []graph.VertexID) {
	start := len(l.ids)
	l.ids = append(l.ids, a...)
	l.ids = append(l.ids, b...)
	l.spans[i] = [2]int32{int32(start), int32(len(l.ids))}
}

// Of returns list i. The slice aliases the arena: valid until the next Reset.
func (l NeighborLists) Of(i int) []graph.VertexID {
	return l.ids[l.spans[i][0]:l.spans[i][1]]
}

// Range returns a view of lists [lo, hi), sharing l's arena.
func (l NeighborLists) Range(lo, hi int) NeighborLists {
	return NeighborLists{spans: l.spans[lo:hi], ids: l.ids}
}

// Permute reorders the lists so that list i becomes the former list perm[i]
// (the arena bytes stay put): a caller reordering its group keeps the lists
// parallel to it.
func (l *NeighborLists) Permute(perm []int32) {
	l.old = append(l.old[:0], l.spans...)
	for i, j := range perm {
		l.spans[i] = l.old[j]
	}
}

// PlaceGroup atomically places a connected group of vertices (a motif
// match) on a single partition, scoring by the total number of edges from
// all group members to each partition (the sub-graph extension of LDG,
// paper footnote 1). neighbors.Of(i) lists the known neighbours of group[i];
// those inside the group are ignored.
//
//loom:hotpath
func (g *Greedy) PlaceGroup(group []graph.VertexID, neighbors NeighborLists) ID {
	p := g.scoreGroupWeighted(group, neighbors, nil)
	for _, v := range group {
		_ = g.a.Set(v, p)
	}
	return p
}

// EdgeWeightFunc scores the importance of the edge between a vertex being
// placed and one of its neighbours; LOOM's traversal-weighted mode derives
// it from TPSTry++ edge probabilities (the paper's future-work extension).
type EdgeWeightFunc func(v, neighbor graph.VertexID) float64

// PlaceWeighted places a single vertex with per-edge weights: instead of
// counting neighbours per partition, LDG sums weightFn over them, biasing
// the choice toward partitions holding neighbours the workload is likely
// to traverse to.
//
//loom:hotpath
func (g *Greedy) PlaceWeighted(v graph.VertexID, neighbors []graph.VertexID, weightFn EdgeWeightFunc) ID {
	p := g.scoreOne(v, neighbors, weightFn)
	_ = g.a.Set(v, p)
	return p
}

// PlaceGroupWeighted is PlaceGroup with per-edge weights.
//
//loom:hotpath
func (g *Greedy) PlaceGroupWeighted(group []graph.VertexID, neighbors NeighborLists, weightFn EdgeWeightFunc) ID {
	p := g.scoreGroupWeighted(group, neighbors, weightFn)
	for _, v := range group {
		_ = g.a.Set(v, p)
	}
	return p
}

// resetLinks zeroes and returns the per-partition link scratch.
//
//loom:hotpath
func (g *Greedy) resetLinks() []float64 {
	for i := range g.links {
		g.links[i] = 0
	}
	return g.links
}

// scoreOne is the single-vertex scoring fast path: the degenerate group {v}
// needs no group-membership set (a vertex is never its own neighbour in a
// simple graph, but the n == v guard preserves the old semantics for
// malformed input) and no per-call allocation at all.
//
//loom:hotpath
func (g *Greedy) scoreOne(v graph.VertexID, neighbors []graph.VertexID, weightFn EdgeWeightFunc) ID {
	links := g.resetLinks()
	for _, n := range neighbors {
		if n == v {
			continue
		}
		if p := g.effective(n); p != Unassigned {
			if weightFn == nil {
				links[p]++
			} else {
				links[p] += weightFn(v, n)
			}
		}
	}
	if g.prior != nil {
		// Restreaming self-affinity: staying put is worth selfWeight.
		if p := g.prior.Get(v); p != Unassigned && int(p) < g.cfg.K {
			links[p] += g.selfWeight
		}
	}
	return g.pickBest(links, 1)
}

// markGroup stamps the group members into the generation-stamped membership
// scratch (keyed by assignment handle) and returns the generation to test
// against.
//
//loom:hotpath
func (g *Greedy) markGroup(group []graph.VertexID) uint32 {
	if g.groupGen == math.MaxUint32 { // wrapped: stale stamps could alias
		for i := range g.inGroupGen {
			g.inGroupGen[i] = 0
		}
		g.groupGen = 0
	}
	g.groupGen++
	for _, v := range group {
		h := g.a.intern(v)
		for int(h) >= len(g.inGroupGen) {
			g.inGroupGen = append(g.inGroupGen, 0)
		}
		g.inGroupGen[h] = g.groupGen
	}
	return g.groupGen
}

// inGroup reports whether n was stamped by the latest markGroup.
//
//loom:hotpath
func (g *Greedy) inGroup(n graph.VertexID, gen uint32) bool {
	h, ok := g.a.ids.Lookup(int64(n))
	return ok && int(h) < len(g.inGroupGen) && g.inGroupGen[h] == gen
}

// scoreGroupWeighted is the scoring core for whole-group placement: with
// weightFn nil every external edge counts 1 (classic LDG); otherwise each
// counts weightFn(v, n).
//
//loom:hotpath
func (g *Greedy) scoreGroupWeighted(group []graph.VertexID, neighbors NeighborLists, weightFn EdgeWeightFunc) ID {
	gen := g.markGroup(group)
	// Weighted edges from the group to each partition.
	links := g.resetLinks()
	for i, v := range group {
		for _, n := range neighbors.Of(i) {
			if g.inGroup(n, gen) {
				continue
			}
			if p := g.effective(n); p != Unassigned {
				if weightFn == nil {
					links[p]++
				} else {
					links[p] += weightFn(v, n)
				}
			}
		}
	}
	if g.prior != nil {
		// Restreaming self-affinity: staying put is worth selfWeight.
		for _, v := range group {
			if p := g.prior.Get(v); p != Unassigned && int(p) < g.cfg.K {
				links[p] += g.selfWeight
			}
		}
	}
	return g.pickBest(links, len(group))
}

// pickBest selects argmax links[p] * weight(size, add), breaking ties to the
// least-loaded candidates and then uniformly at random among them, per
// Stanton & Kliot. The rng is consumed only on a genuine tie, matching the
// map-backed reference bit for bit.
//
//loom:hotpath
func (g *Greedy) pickBest(links []float64, add int) ID {
	bestScore := math.Inf(-1)
	best := g.best[:0]
	for p := 0; p < g.cfg.K; p++ {
		score := links[p] * g.weight(g.a.Size(ID(p)), add)
		if score > bestScore {
			bestScore = score
			best = append(best[:0], ID(p))
		} else if score == bestScore {
			best = append(best, ID(p))
		}
	}
	g.best = best
	if len(best) == 1 {
		return best[0]
	}
	// Ties (including the all-zero score of a neighbourless vertex) break
	// to the least-loaded candidates.
	minSize := math.MaxInt
	leastLoaded := g.leastLoaded[:0]
	for _, p := range best {
		s := g.a.Size(p)
		if s < minSize {
			minSize = s
			leastLoaded = append(leastLoaded[:0], p)
		} else if s == minSize {
			leastLoaded = append(leastLoaded, p)
		}
	}
	g.leastLoaded = leastLoaded
	return leastLoaded[g.rng.Intn(len(leastLoaded))]
}

// Assignment implements Streaming.
func (g *Greedy) Assignment() *Assignment { return g.a }

// Name implements Streaming.
func (g *Greedy) Name() string { return g.name }

// Fennel implements Tsourakakis et al.'s one-pass heuristic: place v on
// argmax |N(v) ∩ P| - alpha * gamma * |P|^(gamma-1). With gamma = 1.5 and
// alpha = sqrt(k) * m / n^1.5 it interpolates between greedy cut
// minimisation and balance.
type Fennel struct {
	cfg        Config
	alpha      float64
	gamma      float64
	a          *Assignment
	rng        *rand.Rand
	prior      *Assignment
	selfWeight float64
	capacity   float64 // cfg.Capacity(), hoisted out of the scoring loop

	// Scoring scratch, reused across Place calls so steady-state placement
	// does not allocate.
	links []float64
	best  []ID
}

// FennelConfig extends Config with Fennel's parameters.
type FennelConfig struct {
	Config
	// ExpectedEdges is the stream's total edge count m, used to derive
	// alpha when Alpha is zero.
	ExpectedEdges int
	// Gamma is the load exponent; zero defaults to 1.5 (the paper's
	// recommended value).
	Gamma float64
	// Alpha overrides the derived balance coefficient when non-zero.
	Alpha float64
}

// NewFennel returns a Fennel partitioner.
func NewFennel(cfg FennelConfig) (*Fennel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 1.5
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		if cfg.ExpectedEdges < 1 {
			return nil, fmt.Errorf("partition: Fennel needs ExpectedEdges or Alpha")
		}
		n := float64(cfg.ExpectedVertices)
		alpha = math.Sqrt(float64(cfg.K)) * float64(cfg.ExpectedEdges) / math.Pow(n, 1.5)
	}
	return &Fennel{
		cfg:      cfg.Config,
		alpha:    alpha,
		gamma:    gamma,
		a:        MustNewAssignment(cfg.K),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		capacity: cfg.Capacity(),
		links:    make([]float64, cfg.K),
		best:     make([]ID, 0, cfg.K),
	}, nil
}

// SetPrior implements PriorAware; see Greedy.SetPrior (ReFennel).
func (f *Fennel) SetPrior(prev *Assignment, selfWeight float64) {
	if selfWeight <= 0 {
		selfWeight = 1
	}
	f.prior = prev
	f.selfWeight = selfWeight
}

// Place implements Streaming.
//
//loom:hotpath
func (f *Fennel) Place(v graph.VertexID, neighbors []graph.VertexID) ID {
	links := f.links
	for i := range links {
		links[i] = 0
	}
	for _, n := range neighbors {
		p := f.a.Get(n)
		if p == Unassigned && f.prior != nil {
			p = f.prior.Get(n)
		}
		if p != Unassigned && int(p) < f.cfg.K {
			links[p]++
		}
	}
	if f.prior != nil {
		if p := f.prior.Get(v); p != Unassigned && int(p) < f.cfg.K {
			links[p] += f.selfWeight
		}
	}
	cap := f.capacity
	bestScore := math.Inf(-1)
	best := f.best[:0]
	for p := 0; p < f.cfg.K; p++ {
		size := float64(f.a.Size(ID(p)))
		if size+1 > cap && f.cfg.Slack > 0 {
			// Hard capacity: any explicitly configured slack (1.0 included)
			// enforces the cap; default Fennel (Slack == 0) relies on the
			// balance penalty only.
			continue
		}
		score := links[p] - f.alpha*f.gamma*math.Pow(size, f.gamma-1)
		if score > bestScore {
			bestScore = score
			best = best[:0]
			best = append(best, ID(p))
		} else if score == bestScore {
			best = append(best, ID(p))
		}
	}
	if len(best) == 0 {
		// All partitions saturated; fall back to the least-loaded ones,
		// breaking ties uniformly at random (like Greedy) rather than
		// deterministically favouring low partition indices.
		minSize := math.MaxInt
		for p := 0; p < f.cfg.K; p++ {
			s := f.a.Size(ID(p))
			if s < minSize {
				minSize = s
				best = best[:0]
				best = append(best, ID(p))
			} else if s == minSize {
				best = append(best, ID(p))
			}
		}
	}
	f.best = best
	p := best[f.rng.Intn(len(best))]
	_ = f.a.Set(v, p)
	return p
}

// Assignment implements Streaming.
func (f *Fennel) Assignment() *Assignment { return f.a }

// Name implements Streaming.
func (f *Fennel) Name() string { return "fennel" }

// PartitionStream drives any Streaming heuristic over a full static graph
// presented in the given vertex order, feeding each vertex its full
// adjacency (the standard evaluation harness for streaming partitioners:
// neighbours already placed influence scoring, later ones do not).
func PartitionStream(g *graph.Graph, order []graph.VertexID, s Streaming) *Assignment {
	// Place never retains the neighbour slice, so one scratch buffer serves
	// the whole stream.
	var scratch []graph.VertexID
	for _, v := range order {
		scratch = g.AppendNeighbors(scratch[:0], v)
		s.Place(v, scratch)
	}
	return s.Assignment()
}

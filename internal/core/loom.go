// Package core implements LOOM, the workload-aware streaming graph
// partitioner that is the paper's primary contribution (§4).
//
// LOOM buffers a sliding window over the incoming graph-stream. Inside the
// window, a pattern.Tracker detects sub-graphs matching the frequent query
// motifs of a TPSTry++ built from the workload. When the oldest vertex of
// the window is due to be assigned, LOOM checks whether it participates in
// a motif match: if so, the whole matching sub-graph — together with any
// overlapping matches (§4.4) — is assigned to a single partition at once,
// using the sub-graph extension of the Linear Deterministic Greedy
// heuristic; isolated vertices and non-motif sub-graphs are assigned by
// plain LDG. The result is a partitioning in which the sub-graphs a random
// workload query traverses tend to live inside one partition.
package core

import (
	"fmt"
	"slices"

	"loom/internal/graph"
	"loom/internal/ident"
	"loom/internal/motif"
	"loom/internal/partition"
	"loom/internal/pattern"
	"loom/internal/stream"
)

// Config parameterises a LOOM partitioner.
type Config struct {
	// Partition carries the LDG parameters (k, expected vertices, slack,
	// seed).
	Partition partition.Config
	// WindowSize is the stream-window vertex capacity (paper §4.1). Zero
	// defaults to 256.
	WindowSize int
	// Threshold is the motif frequency threshold T (paper §4.2): TPSTry++
	// nodes at or above it are motifs worth keeping intact.
	Threshold float64
	// DisableMotifs turns off motif tracking entirely, reducing LOOM to a
	// windowed LDG (ablation E9).
	DisableMotifs bool
	// Verify makes the tracker confirm signature matches with exact
	// isomorphism before trusting them (ablation E10).
	Verify bool
	// SplitOverlaps disables the co-assignment of overlapping motif
	// matches: only the single largest match containing the evicted vertex
	// is kept together (ablation E11). Default false = paper behaviour.
	SplitOverlaps bool
	// MaxMatchesPerVertex bounds tracker memory; see pattern.Options.
	MaxMatchesPerVertex int
	// TraversalWeighting enables the paper's future-work extension: LDG
	// scores each neighbour edge by TraversalBias plus the TPSTry++
	// probability that the workload traverses an edge with those labels,
	// instead of counting every edge as 1 (experiment E12).
	TraversalWeighting bool
	// TraversalBias is the baseline weight added to every edge under
	// TraversalWeighting, so structurally useful but never-traversed edges
	// still attract placement. Zero defaults to 0.1.
	TraversalBias float64
	// MaxGroupSize caps motif-group assignments (the paper's future-work
	// local partitioning of large matched sub-graphs, experiment E13):
	// larger groups are split into connected blocks of at most this many
	// vertices, each placed as a unit. Zero = unlimited (paper behaviour).
	MaxGroupSize int
}

// DefaultWindowSize is used when Config.WindowSize is zero.
const DefaultWindowSize = 256

// Stats counts partitioner activity.
type Stats struct {
	VerticesAssigned  int
	EdgesObserved     int
	EdgesDeferred     int // edges arriving after one endpoint was assigned
	MotifGroups       int // group assignments performed
	GroupedVertices   int // vertices assigned as part of a motif group
	SingletonVertices int // vertices assigned individually
	LargestGroup      int
	GroupsSplit       int // oversized groups split by MaxGroupSize
	Tracker           pattern.Stats
}

// Partitioner is a LOOM instance. It consumes a graph-stream element by
// element and accumulates a partition assignment. Not safe for concurrent
// use.
type Partitioner struct {
	cfg     Config
	trie    *motif.Trie
	window  *stream.Window
	tracker *pattern.Tracker
	ldg     *partition.Greedy
	// verts/labelIDs remember every observed vertex's label so
	// traversal-weighted placement can score edges to already-assigned
	// neighbours: verts interns the stream's VertexIDs and labelIDs (indexed
	// by the interned handle) holds LabelIDs from the factory's shared label
	// interner. Both stay empty unless Config.TraversalWeighting is set. A
	// real deployment would read labels from the store; the simulator keeps
	// them in memory.
	verts    *ident.Interner
	labelIDs []ident.LabelID
	labelSet *ident.Labels
	// adjacency, when set, supplies the full neighbour list of a vertex at
	// assignment time (restreaming passes, where the graph has been fully
	// observed before); nil keeps the streaming-only view of edges seen so
	// far.
	adjacency func(graph.VertexID) []graph.VertexID
	// nbrs is the singleton-placement neighbour scratch: assignSingle
	// concatenates window and assigned neighbours here instead of
	// allocating per eviction. Greedy scores the slice transiently and
	// never retains it.
	nbrs []graph.VertexID
	// Motif-group placement scratch, reused across evictions: groupNbrs is
	// the members' neighbour lists in one flat arena; group backs groupFor's
	// SplitOverlaps copy; order, perm and visited are splitGroup's BFS.
	groupNbrs partition.NeighborLists
	group     []graph.VertexID
	order     []graph.VertexID
	perm      []int32
	visited   []bool
	stats     Stats
}

// New returns a LOOM partitioner over the workload summarised by trie.
// The trie may be empty (or DisableMotifs set), in which case LOOM behaves
// as windowed LDG.
func New(cfg Config, trie *motif.Trie) (*Partitioner, error) {
	if trie == nil {
		return nil, fmt.Errorf("core: nil TPSTry++ (use an empty trie to run without a workload)")
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = DefaultWindowSize
	}
	if cfg.WindowSize < 1 {
		return nil, fmt.Errorf("core: window size %d < 1", cfg.WindowSize)
	}
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("core: threshold %v out of [0,1]", cfg.Threshold)
	}
	// The window graph shares the signature factory's label interner, so
	// the tracker can probe factor tables by LabelID instead of hashing
	// label strings on every observed edge.
	w, err := stream.NewWindowWithLabels(cfg.WindowSize, trie.Factory().Labels())
	if err != nil {
		return nil, err
	}
	ldg, err := partition.NewLDG(cfg.Partition)
	if err != nil {
		return nil, err
	}
	if cfg.TraversalWeighting && cfg.TraversalBias == 0 {
		cfg.TraversalBias = 0.1
	}
	if cfg.MaxGroupSize < 0 {
		return nil, fmt.Errorf("core: MaxGroupSize %d < 0", cfg.MaxGroupSize)
	}
	return &Partitioner{
		cfg:    cfg,
		trie:   trie,
		window: w,
		tracker: pattern.NewTracker(trie, pattern.Options{
			Threshold:           cfg.Threshold,
			MaxMatchesPerVertex: cfg.MaxMatchesPerVertex,
			Verify:              cfg.Verify,
		}),
		ldg:      ldg,
		verts:    ident.NewInterner(),
		labelSet: trie.Factory().Labels(),
	}, nil
}

// noteLabel records v's label for traversal-weighted scoring.
func (p *Partitioner) noteLabel(v graph.VertexID, l graph.Label) {
	h := p.verts.Intern(int64(v))
	for int(h) >= len(p.labelIDs) {
		p.labelIDs = append(p.labelIDs, ident.NoLabel)
	}
	p.labelIDs[h] = p.labelSet.Intern(string(l))
}

// Assignment returns the accumulated placement.
func (p *Partitioner) Assignment() *partition.Assignment { return p.ldg.Assignment() }

// Stats returns a copy of the activity counters (tracker stats included).
func (p *Partitioner) Stats() Stats {
	s := p.stats
	s.Tracker = p.tracker.Stats()
	return s
}

// Window exposes the live window (read-only) for inspection tools.
func (p *Partitioner) Window() *stream.Window { return p.window }

// SetPrior seeds the base LDG with a previous pass's assignment for
// workload-aware restreaming (see partition.PriorAware): not-yet-replaced
// neighbours score with their prior placement and each vertex's own prior
// partition earns selfWeight, for singleton and motif-group placement
// alike. Call before consuming any element.
func (p *Partitioner) SetPrior(prev *partition.Assignment, selfWeight float64) {
	p.ldg.SetPrior(prev, selfWeight)
}

// SetAdjacencyOracle supplies full-graph adjacency for restreaming passes:
// evicted vertices score with their complete neighbour list instead of only
// the edges the stream has delivered so far, so the prior placements of
// later-arriving neighbours count too (the information advantage restreaming
// exists to exploit). Neighbours that are neither assigned nor covered by a
// prior still contribute nothing, which is why a cold-start pass behaves
// identically with or without the oracle.
func (p *Partitioner) SetAdjacencyOracle(fn func(graph.VertexID) []graph.VertexID) {
	p.adjacency = fn
}

// neighborsScratch returns the scoring neighbour list of an evicted vertex
// — the oracle's when one is set, window plus assigned neighbours otherwise
// — in the reusable scratch buffer: valid only until the next call, for
// callers that score and drop the list.
//
//loom:hotpath
func (p *Partitioner) neighborsScratch(ev stream.Eviction) []graph.VertexID {
	if p.adjacency != nil {
		return p.adjacency(ev.V)
	}
	p.nbrs = append(p.nbrs[:0], ev.WindowNeighbors...)
	p.nbrs = append(p.nbrs, ev.AssignedNeighbors...)
	return p.nbrs
}

// Consume processes one stream element.
func (p *Partitioner) Consume(el stream.Element) error {
	switch el.Kind {
	case stream.VertexElement:
		return p.AddVertex(el.V, el.Label)
	case stream.EdgeElement:
		return p.AddEdge(el.V, el.U)
	case stream.RemoveVertexElement:
		return p.RemoveVertex(el.V)
	case stream.RemoveEdgeElement:
		return p.RemoveEdge(el.V, el.U)
	}
	return fmt.Errorf("core: unknown element kind %d", el.Kind)
}

// AddVertex feeds a vertex element. If the window overflows, the oldest
// vertex (and possibly its motif group) is assigned.
func (p *Partitioner) AddVertex(v graph.VertexID, l graph.Label) error {
	if p.Assignment().Assigned(v) {
		return fmt.Errorf("core: vertex %d already assigned", v)
	}
	if p.cfg.TraversalWeighting {
		p.noteLabel(v, l)
	}
	if ev := p.window.AddVertex(v, l); ev != nil {
		p.assignEvicted(*ev)
	}
	return nil
}

// AddEdge feeds an edge element. Both endpoints must have been seen as
// vertex elements (resident or already assigned).
func (p *Partitioner) AddEdge(u, v graph.VertexID) error {
	knownU := p.window.Resident(u) || p.Assignment().Assigned(u)
	knownV := p.window.Resident(v) || p.Assignment().Assigned(v)
	if !knownU || !knownV {
		return fmt.Errorf("core: edge {%d,%d} references unseen vertex", u, v)
	}
	bothResident, err := p.window.AddEdge(u, v)
	if err != nil {
		return err
	}
	p.stats.EdgesObserved++
	if !bothResident {
		p.stats.EdgesDeferred++
		return nil
	}
	if p.cfg.DisableMotifs {
		return nil
	}
	return p.tracker.ObserveEdge(u, v, p.window.Graph())
}

// RemoveVertex deletes a previously seen vertex. A window-resident vertex
// is discarded without ever being assigned (its window edges and motif
// matches die with it); an assigned vertex loses its placement, freeing
// partition capacity. Unseen vertices are an error, mirroring AddEdge's
// validation.
func (p *Partitioner) RemoveVertex(v graph.VertexID) error {
	switch {
	case p.window.Resident(v):
		p.window.Discard(v)
		p.tracker.RemoveVertex(v)
	case p.Assignment().Assigned(v):
		p.Assignment().Remove(v)
		// Residents may hold deferred edges to the assigned vertex; a later
		// eviction must not surface a deleted endpoint.
		p.window.ForgetAssigned(v)
	default:
		return fmt.Errorf("core: remove of unseen vertex %d", v)
	}
	// Forget the label so traversal weighting stops scoring edges into the
	// deleted vertex above baseline; the handle is recycled on re-add.
	if h, ok := p.verts.Remove(int64(v)); ok {
		p.labelIDs[h] = ident.NoLabel
	}
	return nil
}

// RemoveEdge deletes a previously delivered edge. Both endpoints must
// still be known (resident or assigned); the window's bookkeeping and any
// motif match built on the edge are unwound. Edges between two assigned
// vertices have already left the window entirely, so only the tracker
// check applies there (a no-op: matches never outlive eviction).
func (p *Partitioner) RemoveEdge(u, v graph.VertexID) error {
	knownU := p.window.Resident(u) || p.Assignment().Assigned(u)
	knownV := p.window.Resident(v) || p.Assignment().Assigned(v)
	if !knownU || !knownV {
		return fmt.Errorf("core: remove of edge {%d,%d} referencing unseen vertex", u, v)
	}
	p.window.RemoveEdge(u, v)
	if !p.cfg.DisableMotifs {
		p.tracker.RemoveEdge(u, v)
	}
	return nil
}

// Finish drains the window, assigning every remaining vertex, and returns
// the final assignment.
func (p *Partitioner) Finish() *partition.Assignment {
	for {
		ev, ok := p.window.EvictOldest()
		if !ok {
			break
		}
		p.assignEvicted(ev)
	}
	return p.Assignment()
}

// assignEvicted places an evicted vertex: wholly with its motif group when
// it participates in one, individually otherwise (§4.4).
//
//loom:hotpath
func (p *Partitioner) assignEvicted(ev stream.Eviction) {
	if p.cfg.DisableMotifs {
		p.assignSingle(ev)
		return
	}
	group := p.groupFor(ev.V)
	if len(group) <= 1 {
		p.assignSingle(ev)
		p.tracker.RemoveVertex(ev.V)
		return
	}

	// Gather the members' neighbour lists into the arena, parallel to group.
	// ev.V has already left the window, and its lists are window scratch the
	// next eviction overwrites, so they go in first; the other members are
	// force-evicted now, in group order.
	p.groupNbrs.Reset(len(group))
	p.setNeighbors(slices.Index(group, ev.V), ev)
	for i, m := range group {
		if m == ev.V {
			continue
		}
		// A member that is not resident (should not happen: matches only
		// span resident vertices) keeps an empty list.
		if mev, ok := p.window.Evict(m); ok {
			p.setNeighbors(i, mev)
		}
	}

	order, step := group, len(group)
	if limit := p.cfg.MaxGroupSize; limit > 0 && len(group) > limit {
		order, step = p.splitGroup(ev.V, group), limit
		p.stats.GroupsSplit++
	}
	for lo := 0; lo < len(order); lo += step {
		hi := min(lo+step, len(order))
		p.placeGroup(order[lo:hi], p.groupNbrs.Range(lo, hi))
		p.stats.MotifGroups++
		p.stats.GroupedVertices += hi - lo
		p.stats.VerticesAssigned += hi - lo
		if hi-lo > p.stats.LargestGroup {
			p.stats.LargestGroup = hi - lo
		}
	}
	for _, m := range group {
		p.tracker.RemoveVertex(m)
	}
}

// setNeighbors records the scoring neighbour list of evicted group member i:
// the oracle's when one is set, window plus assigned neighbours otherwise.
//
//loom:hotpath
func (p *Partitioner) setNeighbors(i int, ev stream.Eviction) {
	if p.adjacency != nil {
		p.groupNbrs.Set(i, p.adjacency(ev.V), nil)
		return
	}
	p.groupNbrs.Set(i, ev.WindowNeighbors, ev.AssignedNeighbors)
}

// placeGroup assigns one block atomically, with or without traversal
// weighting.
//
//loom:hotpath
func (p *Partitioner) placeGroup(block []graph.VertexID, neighbors partition.NeighborLists) {
	if p.cfg.TraversalWeighting {
		p.ldg.PlaceGroupWeighted(block, neighbors, p.edgeWeight)
		return
	}
	p.ldg.PlaceGroup(block, neighbors)
}

// edgeWeight implements the future-work LDG extension: an edge counts for
// the baseline bias plus the probability the workload traverses an edge
// with its endpoint labels. With interned labels and the trie's memoised
// edge-probability table this is a handful of slice reads, no hashing.
func (p *Partitioner) edgeWeight(v, n graph.VertexID) float64 {
	hv, okV := p.verts.Lookup(int64(v))
	hn, okN := p.verts.Lookup(int64(n))
	if !okV || !okN {
		return p.cfg.TraversalBias
	}
	return p.cfg.TraversalBias + p.trie.PEdgeByID(p.labelIDs[hv], p.labelIDs[hn])
}

// splitGroup applies MaxGroupSize to an oversized group: it returns the
// members in BFS order over the group's internal adjacency starting from the
// evicted vertex, with the neighbour arena permuted to match, so each run of
// MaxGroupSize members is a locally connected region of the matched
// sub-graph (the paper's future-work local partitioning). group is sorted.
//
//loom:hotpath
func (p *Partitioner) splitGroup(start graph.VertexID, group []graph.VertexID) []graph.VertexID {
	p.visited = p.visited[:0]
	for range group {
		p.visited = append(p.visited, false)
	}
	// BFS over group-internal edges (derived from the captured neighbour
	// lists, which include both window and assigned neighbours); perm queues
	// positions in group.
	s := slices.Index(group, start)
	p.visited[s] = true
	p.perm = append(p.perm[:0], int32(s))
	for q := 0; q < len(p.perm); q++ {
		for _, u := range p.groupNbrs.Of(int(p.perm[q])) {
			j, in := slices.BinarySearch(group, u)
			if !in || p.visited[j] {
				continue
			}
			p.visited[j] = true
			p.perm = append(p.perm, int32(j))
		}
	}
	// Overlap closures are connected, but guard against unreachable
	// members (e.g. truncated neighbour info) by appending them.
	for j := range group {
		if !p.visited[j] {
			p.perm = append(p.perm, int32(j))
		}
	}
	p.groupNbrs.Permute(p.perm)
	p.order = p.order[:0]
	for _, j := range p.perm {
		p.order = append(p.order, group[j])
	}
	return p.order
}

// groupFor returns the vertex set to assign together with v, sorted: the
// transitive overlap closure of its matches (paper behaviour) or just its
// largest match (SplitOverlaps ablation). The result includes v; a vertex
// with no matches yields {v}. It is scratch, valid until the next call.
func (p *Partitioner) groupFor(v graph.VertexID) []graph.VertexID {
	if p.cfg.SplitOverlaps {
		// Copied: the match's own slice dies with the match, and the
		// group outlives the RemoveVertex calls that drop it.
		p.group = append(p.group[:0], v)
		if ms := p.tracker.MatchesContaining(v); len(ms) > 0 {
			p.group = append(p.group[:0], ms[0].Vertices()...)
		}
		return p.group
	}
	return p.tracker.GroupFor(v)
}

// assignSingle places one vertex by LDG (traversal-weighted when enabled).
//
//loom:hotpath
func (p *Partitioner) assignSingle(ev stream.Eviction) {
	neighbors := p.neighborsScratch(ev)
	if p.cfg.TraversalWeighting {
		p.ldg.PlaceWeighted(ev.V, neighbors, p.edgeWeight)
	} else {
		p.ldg.Place(ev.V, neighbors)
	}
	p.stats.SingletonVertices++
	p.stats.VerticesAssigned++
}

// Name identifies the partitioner in reports.
func (p *Partitioner) Name() string {
	if p.cfg.DisableMotifs {
		return "loom-nomotifs"
	}
	return "loom"
}

// Run consumes an entire stream source and finishes, returning the final
// assignment. It is the convenience entry point used by the CLI, examples
// and benchmarks.
func (p *Partitioner) Run(src stream.Source) (*partition.Assignment, error) {
	for {
		el, ok := src.Next()
		if !ok {
			break
		}
		if err := p.Consume(el); err != nil {
			return nil, err
		}
	}
	return p.Finish(), nil
}

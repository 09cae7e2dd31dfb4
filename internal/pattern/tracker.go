// Package pattern implements graph-stream pattern matching (paper §4.3):
// detecting, online, the sub-graphs inside LOOM's stream window that match
// frequent query motifs from a TPSTry++.
//
// As each edge arrives the tracker grows existing motif matches by one edge
// — multiplying the match's number-theoretic signature by the edge's factor
// and checking the result against the children of the match's TPSTry++
// node. When an arriving edge extends no existing match (the situation of
// Figure 3, where naive incremental matching would silently discard a
// motif occurrence), the tracker re-expands: starting from the new edge it
// greedily traverses the window sub-graph, keeping each edge whose
// addition stays inside the TPSTry++, until it has found the largest
// motif-matching sub-graph containing the edge.
//
// Signature matching is non-authoritative; the optional Verify mode
// confirms each candidate match with exact isomorphism (experiment E10
// quantifies the difference).
//
// The tracker's state is flat: matches live in a slab with a free list and
// hold their vertices and edges as small sorted slices, the per-vertex
// match index is a dense table behind the tracker's own ident.Interner,
// match deduplication is a hash table keyed by a 64-bit hash of the sorted
// edge array, and "which TPSTry++ child does this edge lead to" is a
// memoised table lookup filled through motif.Trie.ChildByLabels. In steady
// state an observed edge or an evicted vertex allocates nothing.
package pattern

import (
	"cmp"
	"fmt"
	"slices"

	"loom/internal/graph"
	"loom/internal/ident"
	"loom/internal/iso"
	"loom/internal/motif"
	"loom/internal/signature"
)

// Match is an active motif match inside the stream window. Its signature is
// Node.Sig.
//
// A Match and the slices Vertices and Edges return belong to the tracker's
// slab: they are valid until the tracker drops the match (RemoveVertex,
// RemoveEdge, or the per-vertex cap during a later ObserveEdge), after
// which the storage is reused for another match. Callers that keep either
// across such a call must copy.
type Match struct {
	// ID is unique per tracker, in creation order.
	ID int64
	// Node is the TPSTry++ motif this sub-graph matches.
	Node *motif.Node

	verts []graph.VertexID // ascending
	slots []ident.Handle   // slots[i] is verts[i]'s handle in Tracker.vidx
	edges []graph.Edge     // normalized, ascending by (U, V)
	hash  uint64           // hashEdges(edges), the dedup key, computed once at registration
	p     float64          // trie.P(Node), the per-vertex cap's value order
	next  *Match           // dedup-bucket chain while live, free-list link otherwise
	mark  uint64           // GroupFor visit stamp
}

// Vertices returns the matched vertices in ascending order. The slice is the
// match's own storage: read-only, and valid only as long as the match (see
// Match).
func (m *Match) Vertices() []graph.VertexID { return m.verts }

// Edges returns the matched edges, normalized and sorted, under the same
// lifetime contract as Vertices.
func (m *Match) Edges() []graph.Edge { return m.edges }

// Contains reports whether v participates in the match.
func (m *Match) Contains(v graph.VertexID) bool {
	return slices.Contains(m.verts, v)
}

// Size returns the number of matched vertices.
func (m *Match) Size() int { return len(m.verts) }

// String implements fmt.Stringer.
func (m *Match) String() string {
	return fmt.Sprintf("match#%d{%v ~ %v}", m.ID, m.verts, m.Node)
}

// addVertex inserts v into the sorted vertex slice.
func (m *Match) addVertex(v graph.VertexID) {
	i, _ := slices.BinarySearch(m.verts, v)
	m.verts = slices.Insert(m.verts, i, v)
}

// addEdge inserts e into the sorted edge slice.
func (m *Match) addEdge(e graph.Edge) {
	i, _ := slices.BinarySearchFunc(m.edges, e, compareEdges)
	m.edges = slices.Insert(m.edges, i, e)
}

// compareEdges orders normalized edges by (U, V).
func compareEdges(a, b graph.Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// byValue orders matches most valuable first for the per-vertex cap: larger
// motifs, then higher p-value, then newer.
func byValue(a, b *Match) int {
	if c := cmp.Compare(len(b.verts), len(a.verts)); c != 0 {
		return c
	}
	if c := cmp.Compare(b.p, a.p); c != 0 {
		return c
	}
	return cmp.Compare(b.ID, a.ID)
}

// bySizeThenID orders matches largest first, oldest first among equals.
func bySizeThenID(a, b *Match) int {
	if c := cmp.Compare(len(b.verts), len(a.verts)); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// hashEdges is the dedup key of a match: a 64-bit hash of its sorted edge
// array. (The vertex set is the edges' endpoint set, so it adds nothing to
// the hash; equality on a hit still compares both arrays.)
func hashEdges(es []graph.Edge) uint64 {
	h := uint64(len(es))
	for _, e := range es {
		h = mix64(h ^ uint64(e.U))
		h = mix64(h ^ uint64(e.V))
	}
	return h
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Options configures a Tracker.
type Options struct {
	// Threshold is the minimum motif p-value for a TPSTry++ node to be
	// considered frequent and therefore tracked (paper §4.2's T).
	Threshold float64
	// MaxMatchesPerVertex bounds tracker memory: when a vertex
	// participates in more than this many matches, the lowest-value ones
	// are dropped. Zero defaults to 8.
	MaxMatchesPerVertex int
	// Verify re-checks every signature-detected match with exact sub-graph
	// isomorphism against the motif's representative graph, discarding
	// collisions (the authoritative mode of Song et al.; LOOM's default is
	// signature-only).
	Verify bool
}

// DefaultMaxMatchesPerVertex bounds per-vertex match fan-out when Options
// leaves it zero.
const DefaultMaxMatchesPerVertex = 8

// Stats counts tracker activity for experiments. Every registered match
// counts once: in MatchesCreated when re-expansion seeded it from an edge,
// in MatchesExtended when it grew out of an existing match.
type Stats struct {
	MatchesCreated   int
	MatchesExtended  int
	MatchesDropped   int
	Reexpansions     int
	VerifyRejections int
}

// slabChunk is how many matches the slab grows by at a time.
const slabChunk = 64

// noChild marks a memoised transition that leads nowhere (no such TPSTry++
// child, or one below the threshold); nil means "not probed yet".
var noChild = new(motif.Node)

// snapRef pins one match of ObserveEdge's snapshot: the match is still the
// one snapshotted iff its ID is unchanged (a dropped match's ID is reset and
// a recycled one gets a fresh, larger ID).
type snapRef struct {
	m  *Match
	id int64
}

// Tracker maintains the motif matches inside the current stream window.
// The trie must be complete before NewTracker: the tracker memoises its
// roots, transitions, p-values and largest motif size. It is not safe for
// concurrent use.
type Tracker struct {
	trie    *motif.Trie
	factory *signature.Factory
	labels  *ident.Labels // the factory's label interner
	opts    Options

	nextID int64
	live   int // matches currently registered
	stats  Stats

	// The match slab: free heads the recycled matches, each carrying vertex
	// and edge storage for the trie's largest motif (maxV vertices, maxE
	// edges), carved slabChunk matches at a time.
	free       *Match
	maxV, maxE int

	// buckets is the dedup hash table (power-of-two size, chained through
	// Match.next, indexed by Match.hash).
	buckets []*Match

	// The per-vertex match index. vidx interns the vertices that are in at
	// least one live match — the tracker's own handles, because the window
	// graph recycles its handle for an evicted vertex before RemoveVertex
	// runs here. byVertex[h] lists the matches containing the vertex in
	// ascending ID order; seen[h] is GroupFor's visit stamp.
	vidx     *ident.Interner
	byVertex [][]*Match
	seen     []uint64
	gen      uint64 // current GroupFor stamp; 64 bits, so it never wraps

	// The transition memo. Labels at or beyond stride were interned after
	// the trie was built and occur in no motif. roots[l] is the frequent
	// single-vertex motif of label l (nil if none); memo[n.ID], allocated on
	// n's first probe, caches child(n, lu, lv, kind) at
	// (lu*stride+lv)*3+kind.
	stride     int
	roots      []*motif.Node
	memo       [][]*motif.Node
	rootProbes int // root lookups made by seed, pinned by the same-label regression test

	// Scratch, reused across calls.
	snap     []snapRef        // ObserveEdge's candidate snapshot
	expand   []graph.VertexID // reexpand: the seed's vertices in joining order
	nbrs     []graph.VertexID // frontierEdges: one vertex's window neighbours
	frontier []graph.Edge     // frontierEdges' result
	capSlots []ident.Handle   // enforceCaps: the new match's vertex handles
	capSort  []*Match         // enforceCaps: one vertex's matches by value; RemoveEdge's victims
	queue    []ident.Handle   // GroupFor's closure walk
	group    []graph.VertexID // GroupFor's result
	// single backs GroupFor's matchless fast path, so the common
	// one-vertex group costs no allocation.
	single [1]graph.VertexID
}

// NewTracker returns a Tracker over the given TPSTry++.
func NewTracker(trie *motif.Trie, opts Options) *Tracker {
	if opts.MaxMatchesPerVertex <= 0 {
		opts.MaxMatchesPerVertex = DefaultMaxMatchesPerVertex
	}
	t := &Tracker{
		trie:    trie,
		factory: trie.Factory(),
		labels:  trie.Factory().Labels(),
		opts:    opts,
		vidx:    ident.NewInterner(),
		memo:    make([][]*motif.Node, trie.NumNodes()),
	}
	t.stride = t.labels.Len()
	t.roots = make([]*motif.Node, t.stride)
	for l := range t.roots {
		if n, ok := trie.RootFor(graph.Label(t.labels.Name(ident.LabelID(l)))); ok && t.frequent(n) {
			t.roots[l] = n
		}
	}
	for _, n := range trie.Nodes() {
		t.maxV = max(t.maxV, n.NumVertices())
		t.maxE = max(t.maxE, n.NumEdges())
	}
	return t
}

// Stats returns a copy of the tracker's activity counters.
func (t *Tracker) Stats() Stats { return t.stats }

// ActiveMatches returns the number of live matches.
func (t *Tracker) ActiveMatches() int { return t.live }

// frequent reports whether node n clears the tracking threshold.
func (t *Tracker) frequent(n *motif.Node) bool {
	return t.trie.P(n) >= t.opts.Threshold
}

// labelIDs returns the factory LabelIDs of two window vertices. When the
// window graph shares the factory's label interner (LOOM's configuration)
// these are slice reads; otherwise the label strings are interned. A
// non-resident vertex reads as ident.NoLabel, which is beyond every stride
// and so matches nothing.
func (t *Tracker) labelIDs(w *graph.Graph, u, v graph.VertexID) (lu, lv ident.LabelID) {
	if w.LabelInterner() == t.labels {
		lu, _ = w.LabelIDOf(u)
		lv, _ = w.LabelIDOf(v)
		return lu, lv
	}
	lu, lv = ident.NoLabel, ident.NoLabel
	if l, ok := w.Label(u); ok {
		lu = t.factory.LabelID(l)
	}
	if l, ok := w.Label(v); ok {
		lv = t.factory.LabelID(l)
	}
	return lu, lv
}

// child is the memoised transition: the frequent TPSTry++ child reached
// from n by adding an edge between vertices labelled lu and lv, of which
// addU/addV are new to the match, or nil when the edge leaves the trie.
// Misses go through motif.Trie.ChildByLabels — the signature path — once
// per (n, lu, lv, kind).
//
//loom:hotpath
func (t *Tracker) child(n *motif.Node, lu, lv ident.LabelID, addU, addV bool) *motif.Node {
	if int(lu) >= t.stride || int(lv) >= t.stride {
		return nil
	}
	row := t.memo[n.ID]
	if row == nil {
		// One row per TPSTry++ node, on the node's first probe only.
		row = make([]*motif.Node, t.stride*t.stride*3)
		t.memo[n.ID] = row
	}
	i := (int(lu)*t.stride + int(lv)) * 3
	switch {
	case addU:
		i++
	case addV:
		i += 2
	}
	c := row[i]
	if c == nil {
		c = noChild
		if x, ok := t.trie.ChildByLabels(n, lu, lv, addU, addV); ok && t.frequent(x) {
			c = x
		}
		row[i] = c
	}
	if c == noChild {
		return nil
	}
	return c
}

// root returns the frequent single-vertex motif of label l, or nil.
func (t *Tracker) root(l ident.LabelID) *motif.Node {
	t.rootProbes++
	if int(l) >= len(t.roots) {
		return nil
	}
	return t.roots[l]
}

// seed returns the two-vertex motif for an edge whose endpoints are
// labelled lu and lv, or nil when the trie has none above threshold: the
// root of one endpoint's label extended by the edge. The orientations are
// tried U first; labels may differ in which root exists, and equal labels
// make the second orientation the same probe as the first.
func (t *Tracker) seed(lu, lv ident.LabelID) *motif.Node {
	if r := t.root(lu); r != nil {
		if c := t.child(r, lu, lv, false, true); c != nil {
			return c
		}
	}
	if lv == lu {
		return nil
	}
	if r := t.root(lv); r != nil {
		if c := t.child(r, lu, lv, true, false); c != nil {
			return c
		}
	}
	return nil
}

// alloc takes an empty match off the slab's free list.
func (t *Tracker) alloc() *Match {
	if t.free == nil {
		t.growSlab()
	}
	m := t.free
	t.free, m.next = m.next, nil
	m.verts, m.slots, m.edges = m.verts[:0], m.slots[:0], m.edges[:0]
	return m
}

// release returns m to the free list. Resetting the ID is what tells
// ObserveEdge's snapshot the match is gone.
func (t *Tracker) release(m *Match) {
	m.ID, m.Node = -1, nil
	m.next, t.free = t.free, m
}

// growSlab carves slabChunk more matches, each with storage for the trie's
// largest motif. The three-index slices keep an (impossible) overflow from
// spilling into the neighbouring match's storage.
func (t *Tracker) growSlab() {
	ms := make([]Match, slabChunk)
	vs := make([]graph.VertexID, slabChunk*t.maxV)
	hs := make([]ident.Handle, slabChunk*t.maxV)
	es := make([]graph.Edge, slabChunk*t.maxE)
	for i := range ms {
		m := &ms[i]
		m.verts = vs[i*t.maxV : i*t.maxV : (i+1)*t.maxV]
		m.slots = hs[i*t.maxV : i*t.maxV : (i+1)*t.maxV]
		m.edges = es[i*t.maxE : i*t.maxE : (i+1)*t.maxE]
		t.release(m)
	}
}

// findDup reports whether a live match has exactly m's vertices and edges.
func (t *Tracker) findDup(m *Match) bool {
	if len(t.buckets) == 0 {
		return false
	}
	for c := t.buckets[m.hash&uint64(len(t.buckets)-1)]; c != nil; c = c.next {
		if c.hash == m.hash && slices.Equal(c.edges, m.edges) && slices.Equal(c.verts, m.verts) {
			return true
		}
	}
	return false
}

// growTable doubles the dedup table and rehashes the live matches.
func (t *Tracker) growTable() {
	old := t.buckets
	t.buckets = make([]*Match, max(slabChunk, 2*len(old)))
	mask := uint64(len(t.buckets) - 1)
	for _, c := range old {
		for c != nil {
			next := c.next
			c.next, t.buckets[c.hash&mask] = t.buckets[c.hash&mask], c
			c = next
		}
	}
}

// ObserveEdge processes the stream edge {u,v}, where w is the window's
// resident sub-graph (both endpoints must be resident in w). It grows
// existing matches, and re-expands from the edge when nothing grew.
//
//loom:hotpath
func (t *Tracker) ObserveEdge(u, v graph.VertexID, w *graph.Graph) error {
	if !w.HasEdge(u, v) {
		if !w.HasVertex(u) || !w.HasVertex(v) {
			//loom:allocok malformed input only: the caller fed an edge whose endpoint is not resident
			return fmt.Errorf("pattern: edge {%d,%d} endpoint not resident in window", u, v)
		}
		//loom:allocok malformed input only: the caller never added the edge to the window graph
		return fmt.Errorf("pattern: edge {%d,%d} not present in window graph", u, v)
	}
	e := graph.Edge{U: u, V: v}.Normalize()
	lu, lv := t.labelIDs(w, e.U, e.V)

	grew := false
	// Candidates are the matches touching either endpoint, as a snapshot:
	// extension registers new matches and the cap may drop snapshotted ones.
	for _, s := range t.touching(e.U, e.V) {
		if s.m.ID != s.id {
			continue
		}
		if t.tryExtend(s.m, e, lu, lv, w) {
			grew = true
		}
	}
	if !grew {
		// Fig. 3 case: the edge joined no tracked match, but a motif match
		// containing it may exist. Rebuild from the edge outward.
		t.stats.Reexpansions++
		t.reexpand(e, lu, lv, w)
	}
	return nil
}

// matchesAt returns the live matches containing v in ascending ID order.
func (t *Tracker) matchesAt(v graph.VertexID) []*Match {
	if h, ok := t.vidx.Lookup(int64(v)); ok {
		return t.byVertex[h]
	}
	return nil
}

// touching snapshots the matches containing u or v in ascending ID order: a
// two-way merge of the two per-vertex lists into scratch.
//
//loom:hotpath
func (t *Tracker) touching(u, v graph.VertexID) []snapRef {
	out := t.snap[:0]
	if t.live == 0 {
		return out
	}
	a, b := t.matchesAt(u), t.matchesAt(v)
	for len(a) > 0 || len(b) > 0 {
		var m *Match
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0].ID < b[0].ID):
			m, a = a[0], a[1:]
		case len(a) == 0 || b[0].ID < a[0].ID:
			m, b = b[0], b[1:]
		default: // the same match contains both endpoints
			m, a, b = a[0], a[1:], b[1:]
		}
		out = append(out, snapRef{m: m, id: m.ID})
	}
	t.snap = out
	return out
}

// tryExtend attempts to grow match m by edge e (endpoint labels lu, lv),
// registering the grown match when the TPSTry++ has a matching child. The
// original match is retained: it is still a valid (smaller) motif
// occurrence, and may grow differently later.
//
//loom:hotpath
func (t *Tracker) tryExtend(m *Match, e graph.Edge, lu, lv ident.LabelID, w *graph.Graph) bool {
	uIn, vIn := m.Contains(e.U), m.Contains(e.V)
	if !uIn && !vIn {
		return false
	}
	if uIn && vIn && slices.Contains(m.edges, e) {
		return false
	}
	node := t.child(m.Node, lu, lv, !uIn, !vIn)
	if node == nil {
		return false
	}
	grown := t.alloc()
	grown.Node = node
	grown.verts = append(grown.verts, m.verts...)
	grown.edges = append(grown.edges, m.edges...)
	if !uIn {
		grown.addVertex(e.U)
	}
	if !vIn {
		grown.addVertex(e.V)
	}
	grown.addEdge(e)
	if !t.register(grown, w) {
		return false
	}
	t.stats.MatchesExtended++
	return true
}

// reexpand implements the recovery procedure of §4.3: starting from edge e,
// greedily traverse the window sub-graph outward, keeping each edge whose
// addition still corresponds to a TPSTry++ node; edges that leave the trie
// are discarded and not traversed through. The resulting largest
// motif-matching sub-graph containing e (if any) is registered.
//
//loom:hotpath
func (t *Tracker) reexpand(e graph.Edge, lu, lv ident.LabelID, w *graph.Graph) {
	node := t.seed(lu, lv)
	if node == nil {
		return
	}
	seed := t.alloc()
	seed.Node = node
	seed.verts = append(seed.verts, e.U, e.V)
	seed.edges = append(seed.edges, e)

	// Greedy growth in rounds. A round offers the seed, in sorted order,
	// every window edge at its vertices that has not been offered before; an
	// edge that cannot be added is thereby discarded for good ("we do not
	// traverse to their neighbours"). expand[:offered] are the vertices whose
	// edges have all been offered, so the next round's frontier is exactly
	// the edges at the vertices the previous round added.
	t.expand = append(t.expand[:0], e.U, e.V)
	for offered := 0; offered < len(t.expand); {
		frontier := t.frontierEdges(seed, offered, w)
		offered = len(t.expand)
		for _, fe := range frontier {
			uIn, vIn := seed.Contains(fe.U), seed.Contains(fe.V)
			fu, fv := t.labelIDs(w, fe.U, fe.V)
			next := t.child(seed.Node, fu, fv, !uIn, !vIn)
			if next == nil {
				continue
			}
			seed.Node = next
			if !uIn {
				seed.addVertex(fe.U)
				t.expand = append(t.expand, fe.U)
			}
			if !vIn {
				seed.addVertex(fe.V)
				t.expand = append(t.expand, fe.V)
			}
			seed.addEdge(fe)
		}
	}
	if t.register(seed, w) {
		t.stats.MatchesCreated++
	}
}

// frontierEdges returns, sorted, the window edges at the seed vertices
// expand[from:] that no earlier round offered. An edge at an earlier vertex
// (one of expand[:from]) was on that vertex's frontier, so it is either in
// the seed already or was discarded; an edge between two of the new
// vertices turns up from both ends and is deduplicated.
//
//loom:hotpath
func (t *Tracker) frontierEdges(seed *Match, from int, w *graph.Graph) []graph.Edge {
	out := t.frontier[:0]
	for _, x := range t.expand[from:] {
		t.nbrs = w.AppendNeighbors(t.nbrs[:0], x)
		for _, y := range t.nbrs {
			if slices.Contains(t.expand[:from], y) {
				continue
			}
			e := graph.Edge{U: x, V: y}.Normalize()
			if slices.Contains(seed.edges, e) {
				continue
			}
			out = append(out, e)
		}
	}
	slices.SortFunc(out, compareEdges)
	out = slices.Compact(out)
	t.frontier = out
	return out
}

// register adds m to the tracker if it is new and (in Verify mode) survives
// exact isomorphism checking, reporting whether it was stored; a refused
// match goes back to the slab. A stored match may already be gone again when
// register returns: the per-vertex cap can drop the newcomer itself.
//
//loom:hotpath
func (t *Tracker) register(m *Match, w *graph.Graph) bool {
	m.hash = hashEdges(m.edges)
	if t.findDup(m) {
		t.release(m)
		return false
	}
	if t.opts.Verify && !t.verify(m, w) {
		t.stats.VerifyRejections++
		t.release(m)
		return false
	}
	m.ID = t.nextID
	t.nextID++
	m.p = t.trie.P(m.Node)
	if t.live >= len(t.buckets) {
		t.growTable()
	}
	t.live++
	b := &t.buckets[m.hash&uint64(len(t.buckets)-1)]
	m.next, *b = *b, m
	for _, v := range m.verts {
		h := t.vidx.Intern(int64(v))
		for int(h) >= len(t.byVertex) {
			t.byVertex = append(t.byVertex, nil)
			t.seen = append(t.seen, 0)
		}
		list := &t.byVertex[h]
		*list = append(*list, m)
		m.slots = append(m.slots, h)
	}
	t.enforceCaps(m)
	return true
}

// verify checks the match sub-graph against the motif's representative with
// exact isomorphism.
func (t *Tracker) verify(m *Match, w *graph.Graph) bool {
	sub := graph.New()
	for _, v := range m.verts {
		l, ok := w.Label(v)
		if !ok {
			return false
		}
		sub.AddVertex(v, l)
	}
	for _, e := range m.edges {
		if err := sub.AddEdge(e.U, e.V); err != nil {
			return false
		}
	}
	return iso.Isomorphic(sub, m.Node.Rep)
}

// enforceCaps drops the least valuable matches of any vertex of m whose
// fan-out exceeds the per-vertex cap (value order: byValue). Vertices are
// visited in ascending order: dropping a match shrinks other vertices'
// lists too, so the visit order is observable. m itself may be among the
// dropped, hence the copy of its handles; a handle freed along the way
// (its vertex lost its last match) reads as an empty list, and nothing
// interns while the loop runs, so it cannot have been reissued.
//
//loom:hotpath
func (t *Tracker) enforceCaps(m *Match) {
	t.capSlots = append(t.capSlots[:0], m.slots...)
	for _, h := range t.capSlots {
		if len(t.byVertex[h]) <= t.opts.MaxMatchesPerVertex {
			continue
		}
		t.capSort = append(t.capSort[:0], t.byVertex[h]...)
		slices.SortFunc(t.capSort, byValue)
		for _, x := range t.capSort[t.opts.MaxMatchesPerVertex:] {
			t.drop(x)
			t.stats.MatchesDropped++
		}
	}
}

// drop removes match m from all indexes and recycles it. A vertex whose
// last match this was leaves the vertex index.
//
//loom:hotpath
func (t *Tracker) drop(m *Match) {
	b := &t.buckets[m.hash&uint64(len(t.buckets)-1)]
	for *b != m {
		b = &(*b).next
	}
	*b = m.next
	for i, h := range m.slots {
		list := t.byVertex[h]
		j := slices.Index(list, m)
		t.byVertex[h] = slices.Delete(list, j, j+1)
		if len(list) == 1 {
			t.vidx.Remove(int64(m.verts[i]))
		}
	}
	t.live--
	t.release(m)
}

// RemoveVertex discards every match containing v (called after v's group is
// assigned to a partition and leaves the window).
//
//loom:hotpath
func (t *Tracker) RemoveVertex(v graph.VertexID) {
	if t.live == 0 {
		return
	}
	h, ok := t.vidx.Lookup(int64(v))
	if !ok {
		return
	}
	// Dropping v's last match also releases h.
	for n := len(t.byVertex[h]); n > 0; n = len(t.byVertex[h]) {
		t.drop(t.byVertex[h][n-1])
	}
}

// RemoveEdge discards every match whose edge set contains {u,v} (a stream
// deletion invalidated the edge, so any motif occurrence built on it no
// longer exists in the window). Matches merely touching both endpoints
// without using the edge survive.
func (t *Tracker) RemoveEdge(u, v graph.VertexID) {
	e := graph.Edge{U: u, V: v}.Normalize()
	t.capSort = t.capSort[:0]
	for _, m := range t.matchesAt(e.U) {
		if slices.Contains(m.edges, e) {
			t.capSort = append(t.capSort, m)
		}
	}
	for _, m := range t.capSort {
		t.drop(m)
	}
}

// MatchesContaining returns the live matches containing v, largest first.
// The slice is the caller's; the matches it points to are not (see Match).
func (t *Tracker) MatchesContaining(v graph.VertexID) []*Match {
	out := slices.Clone(t.matchesAt(v))
	slices.SortFunc(out, bySizeThenID)
	return out
}

// GroupFor returns the transitive closure of vertices sharing a match with
// v (including v itself when it participates in any match, or just {v}
// otherwise): the set LOOM assigns to a single partition at once, so that
// overlapping motif occurrences are never split (paper §4.4). The returned
// slice is sorted and only valid until the next GroupFor call; callers that
// retain it must copy.
//
//loom:hotpath
func (t *Tracker) GroupFor(v graph.VertexID) []graph.VertexID {
	// Fast path: a vertex in no live match is its own group. This is the
	// overwhelmingly common case on streams whose workload matches rarely
	// (or never, with an empty trie), and it must not pay for the closure
	// walk below.
	h, ok := ident.NoHandle, false
	if t.live > 0 {
		h, ok = t.vidx.Lookup(int64(v))
	}
	if !ok {
		t.single[0] = v
		return t.single[:1]
	}
	// Breadth-first over the vertex index, stamping vertices and matches
	// with this call's generation so each is walked once.
	t.gen++
	t.seen[h] = t.gen
	t.queue = append(t.queue[:0], h)
	for i := 0; i < len(t.queue); i++ {
		for _, m := range t.byVertex[t.queue[i]] {
			if m.mark == t.gen {
				continue
			}
			m.mark = t.gen
			for _, s := range m.slots {
				if t.seen[s] != t.gen {
					t.seen[s] = t.gen
					t.queue = append(t.queue, s)
				}
			}
		}
	}
	t.group = t.group[:0]
	for _, s := range t.queue {
		t.group = append(t.group, graph.VertexID(t.vidx.KeyOf(s)))
	}
	slices.Sort(t.group)
	return t.group
}

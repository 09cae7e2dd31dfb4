// Package motif implements TPSTry++, the Traversal Pattern Summary Trie of
// the paper (§4.2): a DAG that compactly encodes the motifs — connected
// labelled sub-graphs — occurring in a workload of pattern matching
// queries, together with the probability that a random query traverses
// each motif.
//
// Unlike the original TPSTry (path queries only), TPSTry++ handles
// branches and cycles: nodes are arbitrary small connected labelled
// graphs, identified by their number-theoretic signature (package
// signature), and a DAG edge n -> n' means n' extends n by exactly one
// edge. Because distinctly-labelled single vertices all start chains, the
// structure has one root per label rather than a single root, which is why
// it is a DAG and not a trie.
//
// Construction follows Algorithm 1: for every query graph, the co-recursive
// weave enumerates its connected sub-graphs, inserting a node per distinct
// signature and recording parent/child extension edges.
package motif

import (
	"fmt"
	"sort"
	"strconv"

	"loom/internal/graph"
	"loom/internal/ident"
	"loom/internal/signature"
)

// Node is one motif in the TPSTry++.
type Node struct {
	// ID is a dense index assigned in insertion order.
	ID int
	// Rep is a representative graph for the motif (vertex IDs renumbered
	// 0..n-1). All sub-graphs folding into this node share its signature.
	Rep *graph.Graph
	// Sig is the motif's signature; nodes are keyed by Sig.Key().
	Sig *signature.Signature
	// Support is the accumulated weight of queries containing this motif:
	// each call to AddQuery adds its weight at most once per node.
	Support float64
	// Embeddings counts distinct embeddings of the motif across all added
	// queries (a query containing a motif twice contributes 2).
	Embeddings int
	// Queries records which query IDs contain the motif.
	Queries map[string]struct{}

	children map[string]*Node // sig key -> child
	parents  map[string]*Node // sig key -> parent
}

// NumVertices returns the motif's vertex count.
func (n *Node) NumVertices() int { return n.Rep.NumVertices() }

// NumEdges returns the motif's edge count.
func (n *Node) NumEdges() int { return n.Rep.NumEdges() }

// Children returns the node's children sorted by ID.
func (n *Node) Children() []*Node { return sortNodes(n.children) }

// Parents returns the node's parents sorted by ID.
func (n *Node) Parents() []*Node { return sortNodes(n.parents) }

func sortNodes(m map[string]*Node) []*Node {
	out := make([]*Node, 0, len(m))
	for _, n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// String implements fmt.Stringer.
func (n *Node) String() string {
	return fmt.Sprintf("motif#%d{|V|=%d |E|=%d support=%.3f}", n.ID, n.NumVertices(), n.NumEdges(), n.Support)
}

// Options configures TPSTry++ construction.
type Options struct {
	// MaxMotifVertices caps the size of enumerated motifs. Enumeration is
	// exponential in this bound; the paper's motifs are small query
	// fragments, and 5 is the default.
	MaxMotifVertices int
}

// DefaultMaxMotifVertices is the enumeration cap applied when Options
// leaves MaxMotifVertices at zero.
const DefaultMaxMotifVertices = 5

// Trie is the TPSTry++. It is built by AddQuery and then read-only during
// partitioning; concurrent AddQuery calls are not supported.
type Trie struct {
	factory *signature.Factory
	opts    Options

	nodes       map[string]*Node // sig key -> node
	byID        []*Node
	roots       map[graph.Label]*Node
	totalWeight float64

	// pedge caches PEdgeByID results: pedge[a*pedgeStride+b] is the
	// traversal probability of the single-edge motif with endpoint
	// LabelIDs a, b; pedgeOK marks computed cells. Invalidated by AddQuery
	// and rebuilt (larger) when a new LabelID appears.
	pedge       []float64
	pedgeOK     []bool
	pedgeStride int
}

// New returns an empty TPSTry++ using the given signature factory.
func New(f *signature.Factory, opts Options) *Trie {
	if opts.MaxMotifVertices <= 0 {
		opts.MaxMotifVertices = DefaultMaxMotifVertices
	}
	return &Trie{
		factory: f,
		opts:    opts,
		nodes:   make(map[string]*Node),
		roots:   make(map[graph.Label]*Node),
	}
}

// Factory returns the signature factory shared with the matcher.
func (t *Trie) Factory() *signature.Factory { return t.factory }

// NumNodes returns the number of distinct motifs.
func (t *Trie) NumNodes() int { return len(t.byID) }

// TotalWeight returns the accumulated workload weight.
func (t *Trie) TotalWeight() float64 { return t.totalWeight }

// Nodes returns all motif nodes ordered by ID.
func (t *Trie) Nodes() []*Node { return append([]*Node(nil), t.byID...) }

// Roots returns the single-vertex motifs, one per label, sorted by label.
func (t *Trie) Roots() []*Node {
	labels := make([]graph.Label, 0, len(t.roots))
	for l := range t.roots {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	out := make([]*Node, 0, len(labels))
	for _, l := range labels {
		out = append(out, t.roots[l])
	}
	return out
}

// RootFor returns the single-vertex motif for label l, if present.
func (t *Trie) RootFor(l graph.Label) (*Node, bool) {
	n, ok := t.roots[l]
	return n, ok
}

// NodeForKey returns the motif node whose signature key is k.
func (t *Trie) NodeForKey(k string) (*Node, bool) {
	n, ok := t.nodes[k]
	return n, ok
}

// NodeFor returns the motif node with the given signature.
func (t *Trie) NodeFor(s *signature.Signature) (*Node, bool) {
	return t.NodeForKey(s.Key())
}

// ChildFor returns the child of n whose signature key is k: the motif
// reached from n by adding one edge. When n is nil it falls back to root
// lookup by key (used when a match starts from a fresh vertex).
func (t *Trie) ChildFor(n *Node, k string) (*Node, bool) {
	if n == nil {
		node, ok := t.nodes[k]
		return node, ok
	}
	c, ok := n.children[k]
	return c, ok
}

// ChildByLabels returns the child of n reached by adding one edge whose
// endpoints carry labels lu and lv; addU/addV say which endpoints are new
// to the motif (both false closes a cycle). It multiplies n's signature by
// the new factors and probes n's children by key — the signature path —
// so callers that memoise the answer (pattern.Tracker) see exactly the
// trie's own matching semantics.
func (t *Trie) ChildByLabels(n *Node, lu, lv ident.LabelID, addU, addV bool) (*Node, bool) {
	sig := n.Sig.Clone()
	if addU {
		sig.MulPrime(t.factory.VertexFactorByID(lu))
	}
	if addV {
		sig.MulPrime(t.factory.VertexFactorByID(lv))
	}
	sig.MulPrime(t.factory.EdgeFactorByID(lu, lv))
	return t.ChildFor(n, sig.Key())
}

// P returns the probability that a random query from the captured workload
// contains motif n: Support / TotalWeight. It is 0 before any query is
// added.
func (t *Trie) P(n *Node) float64 {
	if t.totalWeight == 0 {
		return 0
	}
	return n.Support / t.totalWeight
}

// FrequentMotifs returns the motifs with at least one edge whose p-value
// meets threshold, sorted by descending p then ascending ID. These are the
// motifs LOOM tries to keep within partition boundaries.
func (t *Trie) FrequentMotifs(threshold float64) []*Node {
	var out []*Node
	for _, n := range t.byID {
		if n.NumEdges() == 0 {
			continue
		}
		if t.P(n) >= threshold {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := t.P(out[i]), t.P(out[j])
		if pi != pj {
			return pi > pj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// MaxFrequentMotifVertices returns the vertex count of the largest motif at
// or above threshold (0 when none).
func (t *Trie) MaxFrequentMotifVertices(threshold float64) int {
	max := 0
	for _, n := range t.FrequentMotifs(threshold) {
		if n.NumVertices() > max {
			max = n.NumVertices()
		}
	}
	return max
}

// PEdge returns the probability that a random workload query contains the
// single-edge motif with endpoint labels la, lb — the per-edge traversal
// probability the paper's future work proposes feeding back into LDG. It
// is 0 when the edge motif never occurs in the workload.
func (t *Trie) PEdge(la, lb graph.Label) float64 {
	return t.PEdgeByID(t.factory.LabelID(la), t.factory.LabelID(lb))
}

// pedgeCompute is the uncached PEdge: build the single-edge signature and
// look its node up.
func (t *Trie) pedgeCompute(a, b ident.LabelID) float64 {
	sig := signature.New()
	sig.MulPrime(t.factory.VertexFactorByID(a))
	sig.MulPrime(t.factory.VertexFactorByID(b))
	sig.MulPrime(t.factory.EdgeFactorByID(a, b))
	n, ok := t.NodeFor(sig)
	if !ok {
		return 0
	}
	return t.P(n)
}

// PEdgeByID is PEdge for already-interned labels, memoised in a dense
// LabelID-indexed table so the traversal-weighted LDG hot path costs two
// slice reads after the first probe of a pair.
func (t *Trie) PEdgeByID(a, b ident.LabelID) float64 {
	n := t.factory.Labels().Len()
	if int(a) >= n || int(b) >= n {
		// Labels the factory has never seen cannot appear in any motif.
		return 0
	}
	if t.pedgeStride < n {
		t.pedge = make([]float64, n*n)
		t.pedgeOK = make([]bool, n*n)
		t.pedgeStride = n
	}
	idx := int(a)*t.pedgeStride + int(b)
	if !t.pedgeOK[idx] {
		p := t.pedgeCompute(a, b)
		t.pedge[idx] = p
		t.pedgeOK[idx] = true
		// The pair is unordered; fill the mirror cell too.
		j := int(b)*t.pedgeStride + int(a)
		t.pedge[j] = p
		t.pedgeOK[j] = true
	}
	return t.pedge[idx]
}

// AddQuery folds query graph q with the given workload weight into the
// trie, implementing Algorithm 1. The query ID is used for provenance
// (Node.Queries). Weight must be positive; disconnected query graphs are
// rejected because a pattern query's traversals cannot leave a component.
func (t *Trie) AddQuery(id string, q *graph.Graph, weight float64) error {
	if weight <= 0 {
		return fmt.Errorf("motif: query %q has non-positive weight %v", id, weight)
	}
	if q.NumVertices() == 0 {
		return fmt.Errorf("motif: query %q is empty", id)
	}
	if !q.IsConnected() {
		return fmt.Errorf("motif: query %q is disconnected", id)
	}
	t.totalWeight += weight
	// Support and total weight change, so cached edge probabilities are
	// stale.
	t.pedge, t.pedgeOK, t.pedgeStride = nil, nil, 0

	// Enumerate connected sub-graphs of q (the co-recursive weave). Each
	// enumerated state is a vertex set + edge set; states are deduplicated
	// by embedding so the DAG edges are discovered once per embedding, and
	// support is credited once per node per query.
	credited := make(map[*Node]struct{})
	seenEmb := make(map[string]struct{})

	var corecurse func(sub *embedding, parent *Node)
	corecurse = func(sub *embedding, parent *Node) {
		key := sub.key()
		first := false
		if _, ok := seenEmb[key]; !ok {
			seenEmb[key] = struct{}{}
			first = true
		}
		node := t.ensureNode(sub.graph(q))
		if parent != nil {
			link(parent, node)
		} else if sub.size() == 1 {
			l := q.MustLabel(sub.vertexList[0])
			t.roots[l] = node
		}
		if first {
			node.Embeddings++
		}
		if _, ok := credited[node]; !ok {
			credited[node] = struct{}{}
			node.Support += weight
			node.Queries[id] = struct{}{}
		}
		if !first {
			// This embedding was already expanded via another path; the
			// DAG link above is still recorded, but do not re-expand.
			return
		}
		if sub.size() >= t.opts.MaxMotifVertices && sub.fullEdges(q) {
			return
		}
		// Expand by every edge incident to the sub-graph but not in it.
		for _, e := range sub.frontier(q, t.opts.MaxMotifVertices) {
			corecurse(sub.extend(e), node)
		}
	}

	for _, v := range q.Vertices() {
		corecurse(newEmbedding(v), nil)
	}
	return nil
}

// ensureNode returns the node for g's signature, creating it if absent.
func (t *Trie) ensureNode(g *graph.Graph) *Node {
	sig := t.factory.SignatureOf(g)
	key := sig.Key()
	if n, ok := t.nodes[key]; ok {
		return n
	}
	n := &Node{
		ID:       len(t.byID),
		Rep:      renumber(g),
		Sig:      sig,
		Queries:  make(map[string]struct{}),
		children: make(map[string]*Node),
		parents:  make(map[string]*Node),
	}
	t.nodes[key] = n
	t.byID = append(t.byID, n)
	return n
}

func link(parent, child *Node) {
	if parent == child {
		return
	}
	parent.children[child.Sig.Key()] = child
	child.parents[parent.Sig.Key()] = parent
}

// renumber copies g with vertices renamed to 0..n-1 in ascending original
// order, so representative motifs have stable small IDs.
func renumber(g *graph.Graph) *graph.Graph {
	vs := g.Vertices()
	idx := make(map[graph.VertexID]graph.VertexID, len(vs))
	out := graph.NewWithCapacity(len(vs))
	for i, v := range vs {
		idx[v] = graph.VertexID(i)
		out.AddVertex(graph.VertexID(i), g.MustLabel(v))
	}
	for _, e := range g.Edges() {
		if err := out.AddEdge(idx[e.U], idx[e.V]); err != nil {
			panic(err)
		}
	}
	return out
}

// embedding is a connected sub-graph of a query graph under enumeration:
// a vertex set plus an explicit edge set (the edge set matters because a
// motif may include only some edges among its vertices).
type embedding struct {
	vertexSet  map[graph.VertexID]struct{}
	vertexList []graph.VertexID
	edges      map[graph.Edge]struct{}
}

func newEmbedding(v graph.VertexID) *embedding {
	return &embedding{
		vertexSet:  map[graph.VertexID]struct{}{v: {}},
		vertexList: []graph.VertexID{v},
		edges:      make(map[graph.Edge]struct{}),
	}
}

func (s *embedding) size() int { return len(s.vertexList) }

// key canonically identifies the embedding (sorted vertices and edges).
func (s *embedding) key() string {
	vs := append([]graph.VertexID(nil), s.vertexList...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	es := make([]graph.Edge, 0, len(s.edges))
	for e := range s.edges {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	out := make([]byte, 0, 8*(len(vs)+2*len(es)))
	for _, v := range vs {
		out = strconv.AppendInt(out, int64(v), 10)
		out = append(out, ',')
	}
	out = append(out, '|')
	for _, e := range es {
		out = strconv.AppendInt(out, int64(e.U), 10)
		out = append(out, '-')
		out = strconv.AppendInt(out, int64(e.V), 10)
		out = append(out, ',')
	}
	return string(out)
}

// graph materialises the embedding as a labelled graph over q's labels.
func (s *embedding) graph(q *graph.Graph) *graph.Graph {
	g := graph.NewWithCapacity(len(s.vertexList))
	for _, v := range s.vertexList {
		g.AddVertex(v, q.MustLabel(v))
	}
	// Insert edges in sorted order so the graph's internal adjacency
	// layout (which insertion order determines) is run-independent.
	es := make([]graph.Edge, 0, len(s.edges))
	for e := range s.edges {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	for _, e := range es {
		if err := g.AddEdge(e.U, e.V); err != nil {
			panic(err)
		}
	}
	return g
}

// fullEdges reports whether every q-edge internal to the vertex set is
// already included (no cycle-closing extensions remain).
func (s *embedding) fullEdges(q *graph.Graph) bool {
	//loom:orderinvariant pure membership predicate; returns false on any missing internal edge, whichever is seen first
	for v := range s.vertexSet {
		for _, u := range q.Neighbors(v) {
			if _, in := s.vertexSet[u]; in && v < u {
				if _, has := s.edges[graph.Edge{U: v, V: u}.Normalize()]; !has {
					return false
				}
			}
		}
	}
	return true
}

// frontier returns the q-edges that extend the embedding by one edge:
// either closing a cycle between two included vertices, or attaching one
// new vertex (only if the vertex budget allows).
func (s *embedding) frontier(q *graph.Graph, maxVertices int) []graph.Edge {
	var out []graph.Edge
	seen := make(map[graph.Edge]struct{})
	//loom:orderinvariant deduplicates candidate edges into a set and sorts the result before returning
	for v := range s.vertexSet {
		for _, u := range q.Neighbors(v) {
			e := graph.Edge{U: v, V: u}.Normalize()
			if _, in := s.edges[e]; in {
				continue
			}
			if _, dup := seen[e]; dup {
				continue
			}
			_, uIn := s.vertexSet[u]
			if !uIn && len(s.vertexList) >= maxVertices {
				continue
			}
			seen[e] = struct{}{}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// extend returns a new embedding with edge e added (and its new endpoint,
// if any).
func (s *embedding) extend(e graph.Edge) *embedding {
	n := &embedding{
		vertexSet:  make(map[graph.VertexID]struct{}, len(s.vertexSet)+1),
		vertexList: append([]graph.VertexID(nil), s.vertexList...),
		edges:      make(map[graph.Edge]struct{}, len(s.edges)+1),
	}
	for v := range s.vertexSet {
		n.vertexSet[v] = struct{}{}
	}
	for ed := range s.edges {
		n.edges[ed] = struct{}{}
	}
	for _, v := range []graph.VertexID{e.U, e.V} {
		if _, ok := n.vertexSet[v]; !ok {
			n.vertexSet[v] = struct{}{}
			n.vertexList = append(n.vertexList, v)
		}
	}
	n.edges[e.Normalize()] = struct{}{}
	return n
}

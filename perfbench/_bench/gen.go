package main

import (
	"math/rand"
	"strconv"

	"loom/internal/graph"
	"loom/internal/stream"
)

// The benchmark's own stream: a linear-time "growing community" graph.
// Vertices arrive in id order; vertex i belongs to community i mod 32 and
// carries a uniform label from a b c d. Each arrival emits up to six edges
// to earlier vertices of its own community and one or two to earlier
// vertices of other communities (about 8.5 elements per vertex).
// gen.PlantedPartition and stream.LiveSource are quadratic and stop being
// usable near n = 3*10^4; this generator is O(elements) and has no end,
// so the phases of a run cut one stream into consecutive pieces.
//
// Locality is the one input property LOOM's ingest cost depends on: the
// probability that a same-community edge targets one of the last
// windowSize arrivals, i.e. a vertex that can still be resident in the
// server's window when the edge lands. Every other edge targets a vertex
// at least windowSize arrivals old, so with Locality 0 no edge is
// window-local and the motif matcher has nothing to do.
const (
	// communities is four times the server's partitions. With as many
	// communities as partitions, whether LDG and its restreams found the
	// planted partition was all or nothing: the cut of the streaming pass
	// ranged from 0.32 to 0.47 over ten seeds, and after the restreams it
	// fell in two groups. Each community's placement is its own run of
	// luck, so the cut of 32 of them averages out (0.37-0.40, one seed in
	// ten at 0.49).
	communities = 32
	windowSize  = 256 // loom-serve -window; the generator's locality is defined against it
	intraEdges  = 6
	chunkElems  = 512 // elements per binary frame and per IngestSync round of the text path
	churnShare  = 0.04
	pickRetries = 4
	// closureShare of the old (not window-local) same-community edges close
	// a triangle: they target an earlier target's own target. Without them
	// a Locality 0 stream has almost no triangles and "cycle a b c" scans
	// the whole graph for its 200 matches.
	closureShare = 0.3
)

var alphabet = [...]graph.Label{"a", "b", "c", "d"}

// ledger is the graph that survives the stream so far, kept by the
// generator so /stats can be checked without a second implementation of
// the server's bookkeeping.
type ledger struct {
	Elements int64
	Vertices int
	Edges    int
}

type generator struct {
	locality float64
	rng      *rand.Rand
	churn    *rand.Rand // draws the removals; nil without churn
	led      ledger

	arrived   int // vertices that have arrived; also the next id
	cur       int // vertex whose edges are being emitted
	intraLeft int
	crossLeft int
	chosen    [intraEdges + 2]int32
	nChosen   int
	label     []uint8
	out       []int32 // out[v*intraEdges+j]: v's j-th same-community target
	outN      []uint8

	// Churn bookkeeping: which vertices are gone, and enough adjacency to
	// retire a removed vertex's edges in O(degree).
	dead     []bool
	edges    [][2]int32
	edgeDead []bool
	adj      [][]int32
}

func newGenerator(locality float64, churn bool, seed int64) *generator {
	g := &generator{locality: locality, rng: rand.New(rand.NewSource(seed))}
	if churn {
		g.churn = rand.New(rand.NewSource(seed ^ 0x5eed))
	}
	return g
}

// alive reports whether v has arrived and was not removed for good.
func (g *generator) alive(v int) bool {
	return v < g.arrived && (g.churn == nil || !g.dead[v])
}

// chunk refills dst with the next chunkElems elements.
func (g *generator) chunk(dst []stream.Element) []stream.Element {
	dst = dst[:0]
	for len(dst) < chunkElems {
		dst = append(dst, g.step())
		// A splice is at most two elements and stays inside the chunk, so
		// that the ledger at a chunk's end covers exactly what was emitted.
		if g.churn != nil && len(dst)+2 <= chunkElems {
			dst = g.spliceChurn(dst)
		}
	}
	g.led.Elements += int64(len(dst))
	return dst
}

// step emits the next element of the insert-only base stream.
func (g *generator) step() stream.Element {
	for g.intraLeft > 0 {
		g.intraLeft--
		if t, ok := g.pick(g.intraTarget); ok {
			g.out[g.cur*intraEdges+int(g.outN[g.cur])] = int32(t)
			g.outN[g.cur]++
			return g.edge(t)
		}
	}
	for g.crossLeft > 0 {
		g.crossLeft--
		if t, ok := g.pick(g.crossTarget); ok {
			return g.edge(t)
		}
	}
	i := g.arrived
	g.arrived++
	g.cur = i
	g.label = append(g.label, uint8(g.rng.Intn(len(alphabet))))
	g.out = append(g.out, make([]int32, intraEdges)...)
	g.outN = append(g.outN, 0)
	if g.churn != nil {
		g.dead = append(g.dead, false)
		g.adj = append(g.adj, nil)
	}
	g.nChosen = 0
	if i > 0 {
		g.intraLeft = intraEdges
		g.crossLeft = 1 + g.rng.Intn(2)
	}
	g.led.Vertices++
	return stream.Element{Kind: stream.VertexElement, V: graph.VertexID(i), Label: alphabet[g.label[i]]}
}

// pick draws a target for the current vertex, refusing repeats and
// removed vertices; after a few refusals the edge is dropped.
func (g *generator) pick(draw func() int) (int, bool) {
next:
	for try := 0; try < pickRetries; try++ {
		t := draw()
		if t < 0 || !g.alive(t) {
			continue
		}
		for _, c := range g.chosen[:g.nChosen] {
			if int(c) == t {
				continue next
			}
		}
		g.chosen[g.nChosen] = int32(t)
		g.nChosen++
		return t, true
	}
	return 0, false
}

// intraTarget draws an earlier vertex of cur's community: with
// probability locality one of the last windowSize arrivals, otherwise one
// older than the window.
func (g *generator) intraTarget() int {
	i := g.cur
	c := i % communities
	local := g.rng.Float64() < g.locality
	recent := min((windowSize-1)/communities, i/communities) // same-community arrivals inside the window
	old := 0                                                 // same-community arrivals older than it
	if i-windowSize >= c {
		old = (i-windowSize-c)/communities + 1
	}
	switch {
	case recent > 0 && (local || old == 0):
		return i - communities*(1+g.rng.Intn(recent))
	case old == 0:
		return -1
	}
	if n := int(g.outN[i]); n > 0 && g.rng.Float64() < closureShare {
		t := int(g.out[i*intraEdges+g.rng.Intn(n)])
		if m := int(g.outN[t]); m > 0 {
			if w := int(g.out[t*intraEdges+g.rng.Intn(m)]); i-w >= windowSize {
				return w
			}
		}
	}
	return c + communities*g.rng.Intn(old)
}

// crossTarget draws an earlier vertex of another community, older than
// the window once the stream is long enough to have such vertices.
func (g *generator) crossTarget() int {
	i := g.cur
	hi := i
	if i >= 2*windowSize {
		hi = i - windowSize + 1
	}
	if hi < 2 {
		return -1
	}
	j := g.rng.Intn(hi)
	if j%communities == i%communities {
		if j+1 < hi {
			j++
		} else {
			j--
		}
	}
	return j
}

func (g *generator) edge(t int) stream.Element {
	g.led.Edges++
	if g.churn != nil {
		id := int32(len(g.edges))
		g.edges = append(g.edges, [2]int32{int32(g.cur), int32(t)})
		g.edgeDead = append(g.edgeDead, false)
		g.adj[g.cur] = append(g.adj[g.cur], id)
		g.adj[t] = append(g.adj[t], id)
	}
	return stream.Element{Kind: stream.EdgeElement, V: graph.VertexID(g.cur), U: graph.VertexID(t)}
}

// spliceChurn appends, after one base element, a vertex removal (4%) or an
// edge removal (4%), as experiments.spliceChurn does for a finished
// stream. No spliced record can be rejected: the victim is never the
// arriving vertex, edge targets are drawn only when the edge is emitted
// and never from vertices that stayed removed, and a removed edge never
// reappears.
func (g *generator) spliceChurn(dst []stream.Element) []stream.Element {
	switch x := g.churn.Float64(); {
	case x < churnShare && g.cur > 0:
		v := -1
		for try := 0; try < pickRetries && v < 0; try++ {
			if c := g.churn.Intn(g.cur); !g.dead[c] {
				v = c
			}
		}
		if v < 0 {
			return dst
		}
		dst = append(dst, stream.Element{Kind: stream.RemoveVertexElement, V: graph.VertexID(v)})
		for _, id := range g.adj[v] {
			if !g.edgeDead[id] {
				g.edgeDead[id] = true
				g.led.Edges--
			}
		}
		g.adj[v] = g.adj[v][:0]
		if g.churn.Intn(2) == 0 { // comes straight back, empty-handed
			dst = append(dst, stream.Element{Kind: stream.VertexElement, V: graph.VertexID(v), Label: alphabet[g.label[v]]})
		} else {
			g.dead[v] = true
			g.led.Vertices--
		}
	case x < 2*churnShare && len(g.edges) > 0:
		for try := 0; try < pickRetries; try++ {
			id := g.churn.Intn(len(g.edges))
			if g.edgeDead[id] {
				continue
			}
			g.edgeDead[id] = true
			g.led.Edges--
			e := g.edges[id]
			return append(dst, stream.Element{Kind: stream.RemoveEdgeElement, V: graph.VertexID(e[0]), U: graph.VertexID(e[1])})
		}
	}
	return dst
}

// appendText renders elems in the line-oriented text codec POST /ingest
// takes by default.
func appendText(dst []byte, elems []stream.Element) []byte {
	for _, el := range elems {
		switch el.Kind {
		case stream.VertexElement:
			dst = append(dst, "v "...)
			dst = strconv.AppendInt(dst, int64(el.V), 10)
			dst = append(dst, ' ')
			dst = append(dst, el.Label...)
		case stream.EdgeElement, stream.RemoveEdgeElement:
			if el.Kind == stream.EdgeElement {
				dst = append(dst, "e "...)
			} else {
				dst = append(dst, "re "...)
			}
			dst = strconv.AppendInt(dst, int64(el.V), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(el.U), 10)
		case stream.RemoveVertexElement:
			dst = append(dst, "rv "...)
			dst = strconv.AppendInt(dst, int64(el.V), 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}

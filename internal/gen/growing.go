package gen

import (
	"math/rand"

	"loom/internal/graph"
	"loom/internal/stream"
)

// GrowingCommunities returns an n-vertex "growing community" graph-stream in
// linear time: vertices arrive in ID order, vertex i belongs to community
// i mod communities and carries a uniform label, and each arrival brings up
// to six edges to earlier vertices of its own community and one or two to
// earlier vertices of other communities (about 8.5 elements per vertex).
//
// locality is the one property LOOM's matching cost depends on: the
// probability that a same-community edge targets one of the last window
// arrivals — a vertex that can still be resident in a window of that size
// when the edge lands. Every other edge targets a vertex at least window
// arrivals old, so at locality 0 the motif matcher has nothing to do and at
// 0.5 about half the same-community edges are window-local. This is the
// stream shape of the repository benchmark's ingest workloads, kept here so
// tests and micro-benchmarks can load the tracker the way the benchmark does.
func GrowingCommunities(n, communities, window int, locality float64, alphabet []graph.Label, r *rand.Rand) []stream.Element {
	const intraEdges = 6
	out := make([]stream.Element, 0, n*9)
	var chosen [intraEdges + 2]int
	for i := 0; i < n; i++ {
		out = append(out, stream.Element{Kind: stream.VertexElement, V: graph.VertexID(i), Label: alphabet[r.Intn(len(alphabet))]})
		if i == 0 {
			continue
		}
		c := i % communities
		recent := min((window-1)/communities, i/communities) // same-community arrivals inside the window
		old := 0                                             // same-community arrivals older than it
		if i-window >= c {
			old = (i-window-c)/communities + 1
		}
		picked := chosen[:0]
		edge := func(t int) {
			for _, p := range picked {
				if p == t {
					return
				}
			}
			picked = append(picked, t)
			out = append(out, stream.Element{Kind: stream.EdgeElement, V: graph.VertexID(i), U: graph.VertexID(t)})
		}
		for j := 0; j < intraEdges; j++ {
			local := r.Float64() < locality
			switch {
			case recent > 0 && (local || old == 0):
				edge(i - communities*(1+r.Intn(recent)))
			case old > 0:
				edge(c + communities*r.Intn(old))
			}
		}
		// Cross-community targets are older than the window once the stream
		// is long enough to have such vertices.
		hi := i
		if i >= 2*window {
			hi = i - window + 1
		}
		for j := 1 + r.Intn(2); j > 0 && hi >= 2; j-- {
			t := r.Intn(hi)
			if t%communities == c {
				if t+1 < hi {
					t++
				} else {
					t--
				}
			}
			edge(t)
		}
	}
	return out
}

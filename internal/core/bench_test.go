package core

import (
	"math/rand"
	"testing"

	"loom/internal/gen"
	"loom/internal/motif"
	"loom/internal/partition"
	"loom/internal/query"
	"loom/internal/signature"
	"loom/internal/stream"
)

// BenchmarkLoomRun measures a full LOOM pass (window + tracker + group LDG)
// over a 2000-vertex BA stream, reporting ns/vertex.
func BenchmarkLoomRun(b *testing.B) {
	const n = 2000
	r := rand.New(rand.NewSource(7))
	alphabet := gen.DefaultAlphabet(4)
	lab := &gen.UniformLabeler{Alphabet: alphabet, Rand: r}
	g, err := gen.BarabasiAlbert(n, 2, lab, r)
	if err != nil {
		b.Fatal(err)
	}
	w, err := query.GenerateWorkload(query.DefaultMix(12), alphabet, r)
	if err != nil {
		b.Fatal(err)
	}
	trie := motif.New(signature.NewFactoryForAlphabet(alphabet), motif.Options{})
	if err := w.BuildTrie(trie); err != nil {
		b.Fatal(err)
	}
	elems, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Partition:  partition.Config{K: 8, ExpectedVertices: n, Slack: 1.2, Seed: 1},
		WindowSize: 256,
		Threshold:  0.05,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(cfg, trie)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(stream.NewSliceSource(elems)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/vertex")
}

// benchWindow is the window the community-stream tests and benchmarks run
// at: loom-serve's default, and the one the repository benchmark uses.
const benchWindow = 256

// hotMixTrie captures the repository benchmark's hot-mix workload (ten
// path, star and cycle patterns over a b c d).
func hotMixTrie(tb testing.TB) *motif.Trie {
	tb.Helper()
	alphabet := gen.DefaultAlphabet(4)
	w, err := query.ResolveWorkload("../../perfbench/_bench/testdata/hotmix.txt", 0, alphabet, 1)
	if err != nil {
		tb.Fatal(err)
	}
	trie := motif.New(signature.NewFactoryForAlphabet(alphabet), motif.Options{})
	if err := w.BuildTrie(trie); err != nil {
		tb.Fatal(err)
	}
	return trie
}

// communityStream is the stream shape of the benchmark's ingest-loom
// workload: 32 growing communities, half the same-community edges local to
// a benchWindow-vertex window.
func communityStream(n int) []stream.Element {
	return gen.GrowingCommunities(n, 32, benchWindow, 0.5, gen.DefaultAlphabet(4), rand.New(rand.NewSource(3)))
}

func communityConfig(n int) Config {
	return Config{
		Partition:  partition.Config{K: 8, ExpectedVertices: n, Slack: 1.2, Seed: 1},
		WindowSize: benchWindow,
		Threshold:  0.05,
	}
}

// BenchmarkAssignEvictedGroup measures the eviction half of LOOM on the
// community stream: one op drains a full window through assignEvicted —
// GroupFor's overlap closure, the forced evictions of the group's members,
// the neighbour arena, group LDG and the tracker clean-up — after the
// (untimed) arrivals that filled it. The few allocs/op left are the
// assignment and the interners growing with the vertex population, and the
// warm-up of each fresh partitioner when the stream runs out.
func BenchmarkAssignEvictedGroup(b *testing.B) {
	const n = 64 * benchWindow
	elems, trie := communityStream(n), hotMixTrie(b)
	// windowEnd[i] is the element index just past the i-th window's worth
	// of arrivals (and their edges).
	var windowEnd []int
	for i, el := range elems {
		if el.Kind == stream.VertexElement && el.V > 0 && int(el.V)%benchWindow == 0 {
			windowEnd = append(windowEnd, i)
		}
	}
	windowEnd = append(windowEnd, len(elems))

	var p *Partitioner
	next, fill, grouped := 0, len(windowEnd), 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if fill == len(windowEnd) { // first op, or the stream ran out: start over
			var err error
			if p, err = New(communityConfig(n), trie); err != nil {
				b.Fatal(err)
			}
			next, fill = 0, 0
		}
		for ; next < windowEnd[fill]; next++ {
			if err := p.Consume(elems[next]); err != nil {
				b.Fatal(err)
			}
		}
		fill++
		before := p.stats.GroupedVertices
		b.StartTimer()
		p.Finish()
		grouped += p.stats.GroupedVertices - before
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchWindow), "ns/vertex")
	if b.N >= 8 && grouped < b.N*benchWindow/2 {
		b.Fatalf("only %d of %d drained vertices left in a motif group; the benchmark is not measuring group placement", grouped, b.N*benchWindow)
	}
}

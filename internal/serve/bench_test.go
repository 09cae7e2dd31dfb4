package serve

import (
	"math/rand"
	"testing"

	"loom/internal/core"
	"loom/internal/gen"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/serve/state"
	"loom/internal/stream"
)

// benchFixture builds one BA graph and its temporal element stream.
func benchFixture(b *testing.B, n int) (*graph.Graph, []stream.Element, core.Config) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	alphabet := gen.DefaultAlphabet(4)
	g, err := gen.BarabasiAlbert(n, 4, &gen.UniformLabeler{Alphabet: alphabet, Rand: r}, r)
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	elems, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		b.Fatalf("stream: %v", err)
	}
	cfg := core.Config{
		Partition:  partition.Config{K: 8, ExpectedVertices: n, Slack: 1.2, Seed: 1},
		WindowSize: 128,
		Threshold:  0.05,
	}
	return g, elems, cfg
}

// BenchmarkBatchRun is the baseline: core.Partitioner.Run over a
// materialised element slice, no serving layer.
func BenchmarkBatchRun(b *testing.B) {
	_, elems, cfg := benchFixture(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trie, err := state.BuildTrie(nil, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.New(cfg, trie)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(stream.NewSliceSource(elems)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(elems)), "ns/element")
}

// BenchmarkServerIngest measures the serving pipeline end to end: mailbox,
// writer loop, snapshot publication — the overhead on top of BatchRun.
func BenchmarkServerIngest(b *testing.B) {
	_, elems, cfg := benchFixture(b, 5000)
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(Config{Core: cfg})
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < len(elems); off += batch {
			end := off + batch
			if end > len(elems) {
				end = len(elems)
			}
			if err := s.Ingest(elems[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		s.Stop()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(elems)), "ns/element")
}

// BenchmarkWhere measures lock-free lookup scaling: run with
// -cpu 1,2,4,8 to see throughput scale across GOMAXPROCS.
func BenchmarkWhere(b *testing.B) {
	const n = 100_000
	s, err := New(Config{
		Core: core.Config{
			Partition:  partition.Config{K: 16, ExpectedVertices: n, Slack: 1.2, Seed: 1},
			WindowSize: 256,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	elems := make([]stream.Element, 0, n)
	for v := 0; v < n; v++ {
		elems = append(elems, stream.Element{Kind: stream.VertexElement, V: graph.VertexID(v), Label: "a"})
	}
	if err := s.IngestSync(elems); err != nil {
		b.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := graph.VertexID(0)
		for pb.Next() {
			if _, ok := s.Where(v); !ok {
				b.Errorf("Where(%d) missed", v)
				return
			}
			v++
			if v == n {
				v = 0
			}
		}
	})
}

// BenchmarkRoute measures the multi-anchor routing decision.
func BenchmarkRoute(b *testing.B) {
	const n = 10_000
	s, err := New(Config{
		Core: core.Config{
			Partition:  partition.Config{K: 8, ExpectedVertices: n, Slack: 1.2, Seed: 1},
			WindowSize: 64,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	elems := make([]stream.Element, 0, n)
	for v := 0; v < n; v++ {
		elems = append(elems, stream.Element{Kind: stream.VertexElement, V: graph.VertexID(v), Label: "a"})
	}
	if err := s.IngestSync(elems); err != nil {
		b.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := graph.VertexID(0)
		for pb.Next() {
			d := s.Route(v, v+1, v+2, v+3)
			if d.Known == 0 {
				b.Error("route found nothing")
				return
			}
			v = (v + 7) % (n - 4)
		}
	})
}

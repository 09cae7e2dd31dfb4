package loom_test

// Benchmark harness: one benchmark per experiment in EXPERIMENTS.md
// (figures F1–F3, claims C1–C3, evaluation E1–E14), each delegating to
// internal/experiments in quick mode, plus micro-benchmarks for the hot
// paths (signatures, isomorphism, windowing, placement, motif capture).
//
// Regenerate every table with:
//
//	go test -bench=. -benchmem ./...
//
// or print the full-size tables with cmd/loom-bench.

import (
	"fmt"
	"math/rand"
	"testing"

	"loom"
	"loom/internal/experiments"
	"loom/internal/gen"
	"loom/internal/graph"
	"loom/internal/iso"
	"loom/internal/motif"
	"loom/internal/partition"
	"loom/internal/pattern"
	"loom/internal/query"
	"loom/internal/signature"
	"loom/internal/store"
	"loom/internal/stream"
)

// benchExperiment runs one experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	spec, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	r := &experiments.Runner{Seed: 42, Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Run(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF1PatternMatch(b *testing.B)         { benchExperiment(b, "F1") }
func BenchmarkF2TPSTryBuild(b *testing.B)          { benchExperiment(b, "F2") }
func BenchmarkF3Reexpansion(b *testing.B)          { benchExperiment(b, "F3") }
func BenchmarkC1LDGvsHash(b *testing.B)            { benchExperiment(b, "C1") }
func BenchmarkC2TraversalProbability(b *testing.B) { benchExperiment(b, "C2") }
func BenchmarkC3Orderings(b *testing.B)            { benchExperiment(b, "C3") }
func BenchmarkE1WindowSweep(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE2ThresholdSweep(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3Balance(b *testing.B)              { benchExperiment(b, "E3") }
func BenchmarkE4Throughput(b *testing.B)           { benchExperiment(b, "E4") }
func BenchmarkE5OfflineRef(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6WorkloadSkew(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7QueryMix(b *testing.B)             { benchExperiment(b, "E7") }
func BenchmarkE8SignatureFidelity(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9AblationNoMotifs(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10AblationVerify(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11AblationCoassign(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12WeightedLDG(b *testing.B)         { benchExperiment(b, "E12") }
func BenchmarkE13GroupSplit(b *testing.B)          { benchExperiment(b, "E13") }
func BenchmarkE14StoreMessages(b *testing.B)       { benchExperiment(b, "E14") }

// ---- micro-benchmarks ----

// BenchmarkSignatureIncremental measures the per-edge cost of maintaining a
// running signature (the matcher's hot path).
func BenchmarkSignatureIncremental(b *testing.B) {
	f := signature.NewFactoryForAlphabet(gen.DefaultAlphabet(8))
	pa := f.VertexFactor("a")
	pe := f.EdgeFactor("a", "b")
	s := signature.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MulPrime(pa)
		s.MulPrime(pe)
		s.DivPrime(pe)
		s.DivPrime(pa)
	}
}

// BenchmarkSignatureOfMotif measures whole-motif signature computation.
func BenchmarkSignatureOfMotif(b *testing.B) {
	f := signature.NewFactoryForAlphabet(gen.DefaultAlphabet(4))
	m := graph.Cycle("a", "b", "a", "b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.SignatureOf(m)
	}
}

// BenchmarkSignatureKey measures canonical key rendering (trie lookups).
func BenchmarkSignatureKey(b *testing.B) {
	f := signature.NewFactoryForAlphabet(gen.DefaultAlphabet(4))
	s := f.SignatureOf(graph.Cycle("a", "b", "a", "b"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Key()
	}
}

// BenchmarkIsoSubgraphSearch measures exact pattern matching of a 3-path
// against a 1k-vertex BA graph (the simulated cluster's query engine).
func BenchmarkIsoSubgraphSearch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	lab := &gen.UniformLabeler{Alphabet: gen.DefaultAlphabet(4), Rand: r}
	g, err := gen.BarabasiAlbert(1000, 2, lab, r)
	if err != nil {
		b.Fatal(err)
	}
	pat := graph.Path("a", "b", "c")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = iso.Count(pat, g)
	}
}

// BenchmarkTPSTryAddQuery measures Algorithm 1 on a 4-vertex query.
func BenchmarkTPSTryAddQuery(b *testing.B) {
	q := graph.Cycle("a", "b", "a", "b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := motif.New(signature.NewFactoryForAlphabet(gen.DefaultAlphabet(4)), motif.Options{MaxMotifVertices: 4})
		if err := tr.AddQuery("q", q, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowChurn measures window add/evict throughput.
func BenchmarkWindowChurn(b *testing.B) {
	w, err := stream.NewWindow(256)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.AddVertex(graph.VertexID(i), "a")
		if i > 0 {
			_, _ = w.AddEdge(graph.VertexID(i), graph.VertexID(i-1))
		}
	}
}

// BenchmarkLDGPlace measures single-vertex LDG placement.
func BenchmarkLDGPlace(b *testing.B) {
	ldg, err := partition.NewLDG(partition.Config{K: 16, ExpectedVertices: 1 << 30, Slack: 1.1})
	if err != nil {
		b.Fatal(err)
	}
	neighbors := []graph.VertexID{1, 2, 3, 4}
	for i, v := range neighbors {
		if err := ldg.Assignment().Set(v, partition.ID(i%16)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ldg.Place(graph.VertexID(i+100), neighbors)
	}
}

// BenchmarkTrackerObserveEdge measures motif tracking per window-resident
// stream edge (one op = one ObserveEdge, with the window upkeep that leads
// up to it) on the stream shape of the repository benchmark's ingest-loom
// workload: a locality-0.5 growing-community stream through a 256-vertex
// window, matched against the benchmark's hot-mix workload. Half the
// same-community edges land inside the window, so the run grows matches
// (tryExtend), re-expands from cold edges and overflows the per-vertex cap;
// the tracker reaches its steady state within the first windows and must
// then report 0 allocs/op.
func BenchmarkTrackerObserveEdge(b *testing.B) {
	alphabet := gen.DefaultAlphabet(4)
	w, err := query.ResolveWorkload("perfbench/_bench/testdata/hotmix.txt", 0, alphabet, 1)
	if err != nil {
		b.Fatal(err)
	}
	trie := motif.New(signature.NewFactoryForAlphabet(alphabet), motif.Options{})
	if err := w.BuildTrie(trie); err != nil {
		b.Fatal(err)
	}
	const window = 256
	elems := gen.GrowingCommunities(64*window, 32, window, 0.5, alphabet, rand.New(rand.NewSource(3)))
	var (
		tk   *pattern.Tracker
		win  *stream.Window
		next = len(elems)
	)
	b.ReportAllocs()
	b.ResetTimer()
	for observed := 0; observed < b.N; next++ {
		if next == len(elems) { // first pass, or the stream ran out: start over
			tk = pattern.NewTracker(trie, pattern.Options{Threshold: 0.05})
			if win, err = stream.NewWindowWithLabels(window, trie.Factory().Labels()); err != nil {
				b.Fatal(err)
			}
			next = 0
		}
		switch el := elems[next]; el.Kind {
		case stream.VertexElement:
			if ev := win.AddVertex(el.V, el.Label); ev != nil {
				tk.RemoveVertex(ev.V)
			}
		case stream.EdgeElement:
			if both, _ := win.AddEdge(el.V, el.U); both {
				if err := tk.ObserveEdge(el.V, el.U, win.Graph()); err != nil {
					b.Fatal(err)
				}
				observed++
			}
		}
	}
	b.StopTimer()
	if st := tk.Stats(); b.N > 10000 && (st.MatchesExtended == 0 || st.Reexpansions == 0 || st.MatchesDropped == 0) {
		b.Fatalf("stream missed a tracker path: %+v", st)
	}
}

// BenchmarkLoomEndToEnd measures full LOOM partitioning of a 2k-vertex BA
// stream, the number a deployment planner would care about.
func BenchmarkLoomEndToEnd(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	alphabet := gen.DefaultAlphabet(4)
	lab := &gen.UniformLabeler{Alphabet: alphabet, Rand: r}
	g, err := gen.BarabasiAlbert(2000, 2, lab, r)
	if err != nil {
		b.Fatal(err)
	}
	w, err := query.GenerateWorkload(query.DefaultMix(12), alphabet, r)
	if err != nil {
		b.Fatal(err)
	}
	trie, err := loom.CaptureWorkload(w, loom.CaptureOptions{Alphabet: alphabet})
	if err != nil {
		b.Fatal(err)
	}
	elems, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := loom.Config{
		Partition:  loom.PartitionConfig{K: 8, ExpectedVertices: 2000, Slack: 1.2, Seed: 1},
		WindowSize: 256,
		Threshold:  0.05,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := loom.New(cfg, trie)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(stream.NewSliceSource(elems)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultilevelPartition measures the offline reference on a 2k
// community graph.
func BenchmarkMultilevelPartition(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	lab := &gen.UniformLabeler{Alphabet: gen.DefaultAlphabet(4), Rand: r}
	g, err := gen.PlantedPartition(2000, 8, 0.16, 0.005, lab, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml := &partition.Multilevel{K: 8, Seed: int64(i)}
		if _, err := ml.Partition(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingPartitioners compares single-vertex placement cost of
// every streaming heuristic at several k (the per-element cost model of
// §3.1's scalability argument).
func BenchmarkStreamingPartitioners(b *testing.B) {
	neighbors := []graph.VertexID{1, 2, 3, 4, 5, 6, 7, 8}
	for _, k := range []int{4, 16, 64} {
		cfg := partition.Config{K: k, ExpectedVertices: 1 << 30, Slack: 1.1, Seed: 1}
		mk := map[string]func() (partition.Streaming, error){
			"hash": func() (partition.Streaming, error) { return partition.NewHash(cfg) },
			"ldg":  func() (partition.Streaming, error) { return partition.NewLDG(cfg) },
			"fennel": func() (partition.Streaming, error) {
				return partition.NewFennel(partition.FennelConfig{Config: cfg, ExpectedEdges: 1 << 31})
			},
		}
		for _, name := range []string{"hash", "ldg", "fennel"} {
			s, err := mk[name]()
			if err != nil {
				b.Fatal(err)
			}
			for i, v := range neighbors {
				if err := s.Assignment().Set(v, partition.ID(i%k)); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.Place(graph.VertexID(i+100), neighbors)
				}
			})
		}
	}
}

// BenchmarkIsoByGraphSize measures pattern-match scaling with target size.
func BenchmarkIsoByGraphSize(b *testing.B) {
	pat := graph.Path("a", "b", "c")
	for _, n := range []int{500, 2000, 8000} {
		r := rand.New(rand.NewSource(1))
		lab := &gen.UniformLabeler{Alphabet: gen.DefaultAlphabet(4), Rand: r}
		g, err := gen.BarabasiAlbert(n, 2, lab, r)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = iso.Count(pat, g)
			}
		})
	}
}

// BenchmarkStoreKHop measures sharded k-hop expansion cost by radius.
func BenchmarkStoreKHop(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	lab := &gen.UniformLabeler{Alphabet: gen.DefaultAlphabet(4), Rand: r}
	g, err := gen.BarabasiAlbert(4000, 2, lab, r)
	if err != nil {
		b.Fatal(err)
	}
	hash, err := partition.NewHash(partition.Config{K: 8, ExpectedVertices: 4000})
	if err != nil {
		b.Fatal(err)
	}
	a := partition.PartitionStream(g, g.Vertices(), hash)
	st, err := store.Build(g, a)
	if err != nil {
		b.Fatal(err)
	}
	for _, hops := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			b.ReportAllocs()
			e := store.NewEngine(st)
			for i := 0; i < b.N; i++ {
				if _, err := e.KHop(graph.VertexID(i%4000), hops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

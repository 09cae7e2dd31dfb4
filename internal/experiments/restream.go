package experiments

import (
	"fmt"
	"math/rand"

	"loom/internal/core"
	"loom/internal/gen"
	"loom/internal/metrics"
	"loom/internal/partition"
	"loom/internal/query"
	"loom/internal/stream"
)

// E15 sweeps restreaming pass counts on a planted-community graph: ReLDG,
// ReFennel and the workload-aware LOOM restream against their single-pass
// selves and the offline multilevel upper bound, reporting cut, balance and
// the migration fraction paid between consecutive passes.
func (r *Runner) E15() (*Table, error) {
	n := r.scale(1000, 6000)
	k := 8
	passes := 4
	if r.Quick {
		passes = 3
	}
	rng := rand.New(rand.NewSource(r.Seed))
	alphabet := gen.DefaultAlphabet(4)
	lab := &gen.UniformLabeler{Alphabet: alphabet, Rand: rng}
	g, err := gen.PlantedPartitionDegrees(n, k, 12, 3, lab, rng)
	if err != nil {
		return nil, err
	}
	base, err := stream.VertexOrder(g, stream.RandomOrder, rand.New(rand.NewSource(r.Seed+100)))
	if err != nil {
		return nil, err
	}
	cfg := partition.Config{K: k, ExpectedVertices: n, Slack: 1.2, Seed: r.Seed}

	t := &Table{
		ID:      "E15",
		Title:   "Restreaming: cut/imbalance/migration vs pass count (community graph)",
		Columns: []string{"partitioner", "pass", "cut%", "vertex balance", "migration%"},
	}
	addPass := func(name string, st partition.PassStats) {
		t.AddRow(name, fmt.Sprintf("%d", st.Pass), fmtP(st.CutFraction),
			fmt.Sprintf("%.3f", st.Imbalance), fmtP(st.MigrationFraction))
	}

	// Multi-pass ReLDG with ambivalence priority: pass 1 doubles as the
	// single-pass LDG baseline (same heuristic, same order, same seed).
	reldg := &partition.Restreamer{
		Config:  partition.RestreamConfig{Passes: passes, Priority: partition.PriorityAmbivalence},
		NewPass: func(int) (partition.Streaming, error) { return partition.NewLDG(cfg) },
	}
	lres, err := reldg.Run(g, base, nil)
	if err != nil {
		return nil, err
	}
	for _, st := range lres.Passes {
		addPass("reldg", st)
	}
	if last, first := lres.Passes[passes-1], lres.Passes[0]; last.CutFraction > first.CutFraction {
		return nil, fmt.Errorf("E15: ReLDG cut worsened across passes: %.4f -> %.4f",
			first.CutFraction, last.CutFraction)
	}

	refennel := &partition.Restreamer{
		Config: partition.RestreamConfig{Passes: passes, Priority: partition.PriorityAmbivalence},
		NewPass: func(int) (partition.Streaming, error) {
			return partition.NewFennel(partition.FennelConfig{Config: cfg, ExpectedEdges: g.NumEdges()})
		},
	}
	fres, err := refennel.Run(g, base, nil)
	if err != nil {
		return nil, err
	}
	for _, st := range fres.Passes {
		addPass("refennel", st)
	}

	// Workload-aware restream: the full LOOM partitioner re-run per pass.
	// The community graph is dense, so motif matches overlap massively;
	// bounding the group size keeps atomic placements from overwhelming
	// the capacity constraint (cf. experiment E13).
	w, err := query.GenerateWorkload(query.DefaultMix(10), alphabet, rand.New(rand.NewSource(r.Seed)))
	if err != nil {
		return nil, err
	}
	trie := newTrieForAlphabet(alphabet)
	if err := w.BuildTrie(trie); err != nil {
		return nil, err
	}
	ccfg := core.Config{Partition: cfg, WindowSize: 256, Threshold: 0.05, MaxGroupSize: 8}
	cres, err := core.Restream(g, trie, ccfg, partition.RestreamConfig{Passes: passes}, base, nil)
	if err != nil {
		return nil, err
	}
	for _, st := range cres.Passes {
		addPass("loom-restream", st)
	}

	ml := &partition.Multilevel{K: k, Seed: r.Seed}
	ma, err := ml.Partition(g)
	if err != nil {
		return nil, err
	}
	t.AddRow("multilevel", "-", fmtP(metrics.CutFraction(g, ma)),
		fmt.Sprintf("%.3f", metrics.VertexImbalance(ma)), "-")

	t.AddNote("pass 1 is the cold-start single-pass baseline of each heuristic; migration%% is paid between consecutive passes")
	t.AddNote("priority: ambivalence (ReLDG/ReFennel); multilevel is the offline upper bound")
	t.AddNote("loom-restream places motif groups atomically (MaxGroupSize=8): it optimises workload traversal locality, so its raw cut trails the structural heuristics")
	return t, nil
}

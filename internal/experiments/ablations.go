package experiments

import (
	"fmt"
	"math/rand"

	"loom/internal/gen"
	"loom/internal/graph"
	"loom/internal/iso"
	"loom/internal/metrics"
	"loom/internal/query"
	"loom/internal/stream"
)

// E8 audits the number-theoretic signatures against exact isomorphism
// (§4.3 claims collisions are "very low"): random pairs of small motifs are
// compared under both equivalences, reporting agreement, false positives
// (signature-equal but non-isomorphic) and false negatives (must be zero —
// isomorphic graphs always share a signature).
func (r *Runner) E8() (*Table, error) {
	rng := rand.New(rand.NewSource(r.Seed))
	alphabet := gen.DefaultAlphabet(3)
	trie := newTrieForAlphabet(alphabet)
	f := trie.Factory()

	pairs := r.scale(2000, 20000)
	var agree, falsePos, falseNeg, sigEqual, isoEqual int
	for i := 0; i < pairs; i++ {
		a := randomMotif(rng, alphabet)
		b := randomMotif(rng, alphabet)
		se := f.SignatureOf(a).Equal(f.SignatureOf(b))
		ie := iso.Isomorphic(a, b)
		if se {
			sigEqual++
		}
		if ie {
			isoEqual++
		}
		switch {
		case se == ie:
			agree++
		case se && !ie:
			falsePos++
		default:
			falseNeg++
		}
	}
	t := &Table{
		ID:      "E8",
		Title:   "Signature fidelity vs exact isomorphism (random motif pairs)",
		Columns: []string{"pairs", "agreement", "sig-equal", "iso-equal", "false positives", "false negatives"},
	}
	t.AddRow(fmt.Sprintf("%d", pairs), fmtP(float64(agree)/float64(pairs)),
		fmt.Sprintf("%d", sigEqual), fmt.Sprintf("%d", isoEqual),
		fmt.Sprintf("%d", falsePos), fmt.Sprintf("%d", falseNeg))
	if falseNeg != 0 {
		return nil, fmt.Errorf("E8: %d false negatives — signatures must be isomorphism-invariant", falseNeg)
	}
	rate := float64(falsePos) / float64(pairs)
	t.AddNote("false-positive (collision) rate: %s — the paper's 'very low' claim", fmtP(rate))
	if rate > 0.05 {
		return nil, fmt.Errorf("E8: collision rate %.3f implausibly high", rate)
	}
	return t, nil
}

// randomMotif generates a small connected labelled graph (2-5 vertices,
// tree plus up to 2 extra edges).
func randomMotif(rng *rand.Rand, alphabet []graph.Label) *graph.Graph {
	n := 2 + rng.Intn(4)
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddVertex(graph.VertexID(i), alphabet[rng.Intn(len(alphabet))])
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(graph.VertexID(rng.Intn(i)), graph.VertexID(i)); err != nil {
			panic(err)
		}
	}
	for e := 0; e < rng.Intn(3); e++ {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// E9 isolates the motif-placement win: LOOM vs LOOM with motif tracking
// disabled (pure windowed LDG) on the same instance, order and seed.
func (r *Runner) E9() (*Table, error) {
	n := r.scale(1500, 10000)
	k := 8
	inst, err := r.newInstance(n, 2, 4, r.scale(12, 24), 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E9",
		Title:   "Ablation: motif grouping on/off",
		Columns: []string{"variant", "traversal prob", "cut%", "motif groups"},
	}
	full := r.loomConfig(n, k, 256, 0.05)
	af, pf, err := r.runLoom(inst, full, stream.RandomOrder)
	if err != nil {
		return nil, err
	}
	off := full
	off.DisableMotifs = true
	ao, po, err := r.runLoom(inst, off, stream.RandomOrder)
	if err != nil {
		return nil, err
	}
	fp, _, err := traversalProbability(inst.g, af, inst.w)
	if err != nil {
		return nil, err
	}
	op, _, err := traversalProbability(inst.g, ao, inst.w)
	if err != nil {
		return nil, err
	}
	t.AddRow("loom", fmtF(fp), fmtP(metrics.CutFraction(inst.g, af)), fmt.Sprintf("%d", pf.Stats().MotifGroups))
	t.AddRow("loom-nomotifs", fmtF(op), fmtP(metrics.CutFraction(inst.g, ao)), fmt.Sprintf("%d", po.Stats().MotifGroups))
	if fp > op+0.02 {
		return nil, fmt.Errorf("E9: grouping made traversal probability worse (%.4f vs %.4f)", fp, op)
	}
	t.AddNote("the delta between rows is the entire contribution of motif grouping")
	return t, nil
}

// E10 compares signature-only match capture with exact-isomorphism-verified
// capture: groups formed, rejections, and resulting quality.
func (r *Runner) E10() (*Table, error) {
	n := r.scale(1500, 10000)
	k := 8
	inst, err := r.newInstance(n, 2, 4, r.scale(12, 24), 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E10",
		Title:   "Ablation: signature-only vs verified motif matching",
		Columns: []string{"variant", "traversal prob", "matches registered", "verify rejections", "motif groups"},
	}
	base := r.loomConfig(n, k, 256, 0.05)
	a1, p1, err := r.runLoom(inst, base, stream.RandomOrder)
	if err != nil {
		return nil, err
	}
	verified := base
	verified.Verify = true
	a2, p2, err := r.runLoom(inst, verified, stream.RandomOrder)
	if err != nil {
		return nil, err
	}
	pr1, _, err := traversalProbability(inst.g, a1, inst.w)
	if err != nil {
		return nil, err
	}
	pr2, _, err := traversalProbability(inst.g, a2, inst.w)
	if err != nil {
		return nil, err
	}
	s1, s2 := p1.Stats(), p2.Stats()
	// Every registered match: seeded by re-expansion or grown from another.
	t.AddRow("signature-only", fmtF(pr1), fmt.Sprintf("%d", s1.Tracker.MatchesCreated+s1.Tracker.MatchesExtended),
		fmt.Sprintf("%d", s1.Tracker.VerifyRejections), fmt.Sprintf("%d", s1.MotifGroups))
	t.AddRow("verified", fmtF(pr2), fmt.Sprintf("%d", s2.Tracker.MatchesCreated+s2.Tracker.MatchesExtended),
		fmt.Sprintf("%d", s2.Tracker.VerifyRejections), fmt.Sprintf("%d", s2.MotifGroups))
	t.AddNote("Song et al. skip verification for partitioning; rejections measure what that costs")
	return t, nil
}

// E11 disables the co-assignment of overlapping motif matches (§4.4): each
// evicted vertex takes only its largest match with it.
func (r *Runner) E11() (*Table, error) {
	n := r.scale(1500, 10000)
	k := 8
	inst, err := r.newInstance(n, 2, 4, r.scale(12, 24), 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E11",
		Title:   "Ablation: overlap co-assignment on/off",
		Columns: []string{"variant", "traversal prob", "cut%", "largest group", "vertex balance"},
	}
	base := r.loomConfig(n, k, 256, 0.05)
	a1, p1, err := r.runLoom(inst, base, stream.RandomOrder)
	if err != nil {
		return nil, err
	}
	split := base
	split.SplitOverlaps = true
	a2, p2, err := r.runLoom(inst, split, stream.RandomOrder)
	if err != nil {
		return nil, err
	}
	pr1, _, err := traversalProbability(inst.g, a1, inst.w)
	if err != nil {
		return nil, err
	}
	pr2, _, err := traversalProbability(inst.g, a2, inst.w)
	if err != nil {
		return nil, err
	}
	t.AddRow("co-assign (paper)", fmtF(pr1), fmtP(metrics.CutFraction(inst.g, a1)),
		fmt.Sprintf("%d", p1.Stats().LargestGroup), fmt.Sprintf("%.3f", metrics.VertexImbalance(a1)))
	t.AddRow("largest-match only", fmtF(pr2), fmtP(metrics.CutFraction(inst.g, a2)),
		fmt.Sprintf("%d", p2.Stats().LargestGroup), fmt.Sprintf("%.3f", metrics.VertexImbalance(a2)))
	t.AddNote("co-assignment risks larger groups (balance pressure) in exchange for keeping shared substructure local")
	return t, nil
}

var _ = query.DefaultMix // keep import symmetry with sweeps.go

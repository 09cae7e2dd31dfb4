package state

import (
	"errors"
	"fmt"
	"sort"

	"loom/internal/core"
	"loom/internal/graph"
	"loom/internal/metrics"
	"loom/internal/motif"
	"loom/internal/partition"
	"loom/internal/query"
)

// Job is a restream cut loose from the state: fully detached copies of
// graph and assignment (fresh interners — the identity layer is not
// concurrency-safe) plus the workload to score against. The shell runs it
// on a background goroutine and hands the Outcome back to Adopt.
type Job struct {
	cfg      Config
	trigger  string
	g        *graph.Graph
	prior    *partition.Assignment
	workload *query.Workload
	// source records which workload the loom heuristic scores against:
	// "static" (Config.Workload) or "observed". Empty for ldg/fennel.
	source string
}

// Outcome carries a finished Job back to the writer.
type Outcome struct {
	job *Job
	res *partition.RestreamResult
	err error
	// trie is the restream's private TPSTry++ (loom heuristic only): on
	// adoption it becomes the live trie, so the pattern tracker follows
	// the workload the restream was scored against.
	trie *motif.Trie
}

// BeginRestream detaches a restream of the current graph, labelled with
// trigger for the report and the migration-budget exemption. observed is
// the live workload source (nil, or a nil or empty answer, falls back to
// the static Config.Workload); only the loom heuristic asks it, here on
// the writer, so the background goroutine never touches the source. With
// Config.DecaySpan set, edges whose last add is older than
// the span (in accepted elements) are left out of the detached graph:
// every heuristic scores only from the copy it is handed, so stale edges
// age out of restream scoring uniformly while the canonical graph and the
// served placements keep them.
func (s *State) BeginRestream(trigger string, observed func() *query.Workload) (*Job, error) {
	switch {
	case s.restreaming:
		return nil, errors.New("serve: restream already in flight")
	case s.g.NumVertices() == 0:
		return nil, errors.New("serve: nothing to restream")
	}
	s.restreaming = true
	s.everRestream = true
	s.sinceRestream = 0
	j := &Job{cfg: s.cfg, trigger: trigger, prior: s.p.Assignment().Clone(), workload: s.cfg.Workload}
	if s.edgeStamp == nil {
		j.g = s.clone(s.g.NumVertices(), nil, nil)
	} else {
		cutoff := s.ingested - s.cfg.DecaySpan
		j.g = s.clone(s.g.NumVertices(), nil, func(u, v graph.VertexID) bool {
			return s.edgeStamp[graph.Edge{U: u, V: v}.Normalize()] >= cutoff
		})
	}
	if h := s.cfg.Drift.Heuristic; h == "" || h == "loom" {
		j.source = "static"
		if observed != nil {
			if w := observed(); w != nil && w.Len() > 0 {
				j.workload, j.source = w, "observed"
			}
		}
	}
	return j, nil
}

// Run executes the configured restream heuristic over the detached copy.
// It touches nothing but the Job, so it may run on any goroutine.
func (j *Job) Run() *Outcome {
	out := &Outcome{job: j}
	d := j.cfg.Drift
	rcfg := partition.RestreamConfig{Passes: d.Passes, Priority: d.Priority, SelfWeight: d.SelfWeight}
	base := j.g.Vertices()
	pcfg := j.cfg.Core.Partition
	pcfg.ExpectedVertices = j.g.NumVertices()
	switch d.Heuristic {
	case "", "loom":
		// The private trie built from the job's workload is what becomes
		// the live trie at adoption.
		trie, err := BuildTrie(j.workload, j.cfg.Alphabet, j.cfg.MaxMotifVertices)
		if err != nil {
			out.err = err
			return out
		}
		ccfg := j.cfg.Core
		ccfg.Partition = pcfg
		if out.res, out.err = core.Restream(j.g, trie, ccfg, rcfg, base, j.prior); out.err == nil {
			out.trie = trie
		}
	default: // "ldg", "fennel": New validated the name
		rs := &partition.Restreamer{
			Config: rcfg,
			NewPass: func(int) (partition.Streaming, error) {
				if d.Heuristic == "fennel" {
					return partition.NewFennel(partition.FennelConfig{Config: pcfg, ExpectedEdges: j.g.NumEdges()})
				}
				return partition.NewLDG(pcfg)
			},
		}
		out.res, out.err = rs.Run(j.g, base, j.prior)
	}
	return out
}

// Adopt ends the restream begun by BeginRestream and records its report
// (elapsedMS is the shell's wall-clock measurement). A successful outcome
// within the migration budget is swapped into the serving state, which
// then sits at a window-empty barrier; otherwise the old assignment keeps
// serving and err says why.
func (s *State) Adopt(out *Outcome, elapsedMS int64) (swapped bool, err error) {
	s.restreaming = false
	s.sinceRestream = 0
	report := &RestreamReport{Trigger: out.job.trigger, WorkloadSource: out.job.source, DurationMS: elapsedMS}
	if err = out.err; err == nil {
		err = s.swap(out, report)
	}
	if err != nil {
		report.Err = err.Error()
	}
	s.lastRestream = report
	return err == nil, err
}

// swap merges a restreamed assignment into the live one and rebuilds
// engine, table and drift counters around it, filling in report. It
// drains the live window first (a swap barrier — every ingested vertex
// gets a current placement) even when the budget then refuses the swap.
func (s *State) swap(out *Outcome, report *RestreamReport) error {
	prev := s.p.Assignment().Clone()
	s.Drain()
	cur := s.p.Assignment()
	merged := out.res.Final
	// Deletions that raced the background pass: the detached clone
	// predates them, so scrub placements for vertices the live graph no
	// longer holds — a removed (and possibly later recycled) ID must
	// never inherit a shard from a stale clone.
	var gone []graph.VertexID
	merged.EachVertex(func(v graph.VertexID, _ partition.ID) {
		if !s.g.HasVertex(v) {
			gone = append(gone, v)
		}
	})
	for _, v := range gone {
		merged.Remove(v)
	}
	report.Passes = out.res.Passes
	report.Vertices = merged.Len()
	// Vertices ingested after the snapshot keep their live placement.
	var mergeErr error
	cur.EachVertex(func(v graph.VertexID, p partition.ID) {
		if merged.Get(v) == partition.Unassigned {
			if err := merged.Set(v, p); err != nil && mergeErr == nil {
				mergeErr = err
			}
		}
	})
	if mergeErr != nil {
		return mergeErr // unreachable with a validated config
	}
	prev.EachVertex(func(v graph.VertexID, from partition.ID) {
		if to := merged.Get(v); to != partition.Unassigned && to != from {
			report.Moves = append(report.Moves, Move{V: v, From: from, To: to})
		}
	})
	sort.Slice(report.Moves, func(i, j int) bool { return report.Moves[i].V < report.Moves[j].V })
	// Only previously visible placements that changed cost data movement;
	// window residents assigned at the barrier were never published.
	report.Migrated = len(report.Moves)
	if n := merged.Len(); n > 0 {
		report.MigrationFraction = float64(report.Migrated) / float64(n)
	}

	// The migration budget gates automatically triggered swaps: when the
	// plan would move more of the graph than the operator allowed, keep
	// serving the old assignment. The check uses metrics.MigrationFraction
	// over the full pre/post assignments (vertices first assigned at the
	// barrier included), the same measure the offline evaluator reports.
	// The cooldown (sinceRestream was reset by Adopt) spaces out the retry.
	if bud := s.cfg.Drift.MaxMigrationFraction; bud > 0 && out.job.trigger != "manual" {
		if mf := metrics.MigrationFraction(prev, merged); mf > bud {
			report.BudgetRejected = true
			return fmt.Errorf("serve: migration fraction %.4f exceeds budget %.4f", mf, bud)
		}
	}

	// Adopt the restream's trie as the live one (loom heuristic): the
	// pattern tracker and every later engine reseed then score against
	// the workload this restream was built from — the observed workload
	// once a source is installed, closing the feedback loop.
	if out.trie != nil {
		s.trie, s.live = out.trie, nil
		if out.job.source == "observed" {
			s.live = out.job.workload
		}
	}

	// Rebuild the engine around the merged assignment. ExpectedVertices
	// is re-planned from the observed arrival ratio since the last swap
	// (clamped to [1.25x, 4x] headroom over the current population, 2x
	// before a baseline exists) instead of blindly doubling: a plateaued
	// stream no longer inflates the capacity constraint, a fast-growing
	// one gets more headroom. The growth sticks in s.ccfg so later
	// barriers (checkpoints, recovery) rebuild with the same capacity.
	n := s.g.NumVertices()
	growth := 2.0
	if s.vertsAtSwap > 0 {
		growth = min(max(float64(n)/float64(s.vertsAtSwap), 1.25), 4)
	}
	if target := int(float64(n) * growth); s.ccfg.Partition.ExpectedVertices < target {
		s.ccfg.Partition.ExpectedVertices = target
	}
	s.vertsAtSwap = n
	report.ExpectedVertices = s.ccfg.Partition.ExpectedVertices
	if err := s.reseed(merged); err != nil {
		return err // unreachable with a validated config
	}
	s.pending = s.pending[:0]

	// Fresh table generation, and the drift counters recounted from
	// scratch against it. The swap also starts a fresh drift window: the
	// recomputed counters are the new baseline, and the pre-swap window
	// rate no longer describes the serving assignment.
	s.tab = buildTable(s.p.Assignment())
	s.cut, s.observed = 0, 0
	s.g.EachEdge(func(u, v graph.VertexID) bool {
		s.account(u, v, 1)
		return true
	})
	s.winStartCut, s.winStartObserved = s.cut, s.observed
	s.winRate, s.winValid = 0, false
	s.restreams++
	return nil
}

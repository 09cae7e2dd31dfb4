// Package state is the deterministic core of the serving runtime: the
// writer-owned half of serve.Server as a single-threaded state machine.
//
// A State owns the canonical graph, the live core.Partitioner with its
// effective configuration and trie, the published placement Table, the
// incremental cut/observed drift estimators and the restream bookkeeping.
// Its behaviour is a pure function of the calls made on it: it starts no
// goroutine, owns no channel, reads no clock and touches no file, which
// loom-lint enforces (the package is listed in lint.DeterministicPackages).
// serve.Server is the I/O shell around it — mailbox and replies, WAL and
// snapshot files, healing, admission, the decode pool and the restream
// goroutine — and the only caller; all calls come from its writer
// goroutine. Only what Publish, View and Job.Run return may cross to
// other goroutines.
//
// Two operations exist exactly once. Barrier is the one drain + engine
// reseed behind every checkpoint (explicit, periodic, re-anchor, replayed
// RecordBarrier). ApplyRecord is the one mapping from a WAL record kind to
// a mutation: the live writer and crash recovery both go through it, so a
// replayed history cannot diverge from the one that was served.
//
// Errors keep the "serve:" prefix: they surface verbatim through the serve
// API and the HTTP layer.
package state

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"loom/internal/checkpoint"
	"loom/internal/core"
	"loom/internal/graph"
	"loom/internal/metrics"
	"loom/internal/motif"
	"loom/internal/partition"
	"loom/internal/query"
	"loom/internal/signature"
	"loom/internal/stream"
)

// maxReportedErrors caps the per-batch element errors joined into Apply's
// result; the rest are only counted.
const maxReportedErrors = 8

// DriftConfig parameterises the drift monitor and the background restream
// it triggers.
type DriftConfig struct {
	// MaxCutFraction triggers a restream when cut edges / observed
	// assigned-assigned edges exceeds it. Zero disables the cut trigger.
	// Pair it with MaxImbalance: an oversized capacity constraint can
	// collapse a connected stream into one partition, where the cut is a
	// legitimate zero and only the imbalance trigger fires.
	MaxCutFraction float64
	// MaxImbalance triggers a restream when max partition size over ideal
	// exceeds it (1.0 = perfect balance). Zero disables the trigger.
	MaxImbalance float64
	// MinAssigned gates both triggers until this many vertices are
	// assigned. Zero defaults to DefaultMinAssigned.
	MinAssigned int
	// CooldownAssigned is the number of newly assigned vertices required
	// between restreams. Zero defaults to MinAssigned.
	CooldownAssigned int
	// Passes is the number of restream passes per trigger (default 1).
	Passes int
	// Priority reorders the stream between passes (prioritized
	// restreaming).
	Priority partition.Priority
	// SelfWeight is the prior self-affinity bonus (zero defaults to 1).
	SelfWeight float64
	// Heuristic picks the restream engine: "loom" (workload-aware, the
	// default), "ldg" (ReLDG) or "fennel" (ReFennel).
	Heuristic string
	// WindowEdges sizes the drift estimator window in observed
	// (assigned-assigned) edges. When set, the cut trigger compares the
	// cut fraction of the last completed window instead of the lifetime
	// counters, so a long well-partitioned prefix cannot mask fresh
	// drift. Zero keeps the lifetime estimator.
	WindowEdges int
	// MaxMigrationFraction bounds the data movement an automatically
	// triggered restream may impose: if the finished plan would move more
	// than this fraction of the assigned vertices, the swap is refused
	// and the old assignment keeps serving (the cooldown then spaces out
	// the next attempt). Manual restreams are operator decisions and
	// exempt. Zero means unlimited.
	MaxMigrationFraction float64
	// MaxMessagesPerQuery triggers a workload restream when the served
	// queries' cross-shard message rate (messages per query, averaged
	// over QueryWindow queries) exceeds it. The serve layer does not see
	// queries itself: the query engine (internal/qserve) reads this via
	// DriftConfig() and calls TriggerRestream("workload"). Zero disables
	// the trigger.
	MaxMessagesPerQuery float64
	// QueryWindow is the number of served queries per message-rate
	// window for the MaxMessagesPerQuery trigger. Zero leaves the choice
	// to the query engine.
	QueryWindow int
}

// Config is the part of serve.Config the state machine consumes; the
// fields are documented there. The shell applies the defaults.
type Config struct {
	Core             core.Config
	Workload         *query.Workload
	Alphabet         []graph.Label
	MaxMotifVertices int
	Drift            DriftConfig
	DecaySpan        int64
}

// State is the writer-owned serving state. Not safe for concurrent use.
type State struct {
	cfg Config
	g   *graph.Graph
	p   *core.Partitioner
	// ccfg is the effective core configuration: cfg.Core with
	// ExpectedVertices grown at restream swaps. Every engine reseed
	// constructs from it, and snapshots record it so a recovered engine
	// scores with the same capacity constraint.
	ccfg core.Config
	trie *motif.Trie
	// observed workload the live trie was built from, adopted from a
	// restream; nil while the trie is the static cfg.Workload's. Snapshots
	// persist it so recovery replays the WAL tail against the same trie.
	live     *query.Workload
	tab      *Table
	pending  []graph.VertexID // ingested, not yet mirrored into tab
	cut      int              // cut edges among assigned-assigned pairs
	observed int              // assigned-assigned edges seen
	epoch    uint64
	ingested int64
	rejected int64
	// edgeStamp records each live edge's last-add logical time (accepted
	// element count) for Config.DecaySpan; nil when decay is off. Only
	// probed at restream launch, where the live graph's deterministic edge
	// iteration drives the probes, so map order never leaks.
	edgeStamp map[graph.Edge]int64
	// scratch backs the accepted subset Apply returns for a partly
	// rejected batch.
	scratch []stream.Element

	restreaming   bool
	everRestream  bool // a restream has been launched at least once
	sinceRestream int  // vertices assigned since the last restream event
	restreams     int
	lastRestream  *RestreamReport
	// vertsAtSwap is the vertex count at the last restream swap, the
	// baseline of the adaptive ExpectedVertices re-plan (0 before the
	// first swap).
	vertsAtSwap int

	// Windowed drift estimator (Drift.WindowEdges > 0): winStart* mark
	// the counters at the open window's start; winRate/winValid hold the
	// last completed window's cut fraction.
	winStartCut      int
	winStartObserved int
	winRate          float64
	winValid         bool
}

// BuildTrie captures w (possibly nil) into a fresh TPSTry++ with its own
// signature factory and label interner.
func BuildTrie(w *query.Workload, alphabet []graph.Label, maxMotif int) (*motif.Trie, error) {
	t := motif.New(signature.NewFactoryForAlphabet(alphabet), motif.Options{MaxMotifVertices: maxMotif})
	if w != nil {
		if err := w.BuildTrie(t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// New validates cfg and returns an empty State.
func New(cfg Config) (*State, error) {
	switch cfg.Drift.Heuristic {
	case "", "loom", "ldg", "fennel":
	default:
		return nil, fmt.Errorf("serve: unknown restream heuristic %q", cfg.Drift.Heuristic)
	}
	if cfg.DecaySpan < 0 {
		return nil, fmt.Errorf("serve: decay span %d < 0", cfg.DecaySpan)
	}
	trie, err := BuildTrie(cfg.Workload, cfg.Alphabet, cfg.MaxMotifVertices)
	if err != nil {
		return nil, err
	}
	p, err := core.New(cfg.Core, trie)
	if err != nil {
		return nil, err
	}
	s := &State{cfg: cfg, g: graph.New(), p: p, ccfg: cfg.Core, trie: trie, tab: newTable(0)}
	if cfg.DecaySpan > 0 {
		s.edgeStamp = make(map[graph.Edge]int64)
	}
	return s, nil
}

// ApplyRecord replays one WAL record kind as its state mutation. It is
// the only place a checkpoint.RecordKind maps to a mutation: the live
// writer applies an operation through it before logging the record, and
// recovery feeds the logged tail back through it.
func (s *State) ApplyRecord(kind checkpoint.RecordKind, elems []stream.Element) ([]stream.Element, error) {
	switch kind {
	case checkpoint.RecordBatch, checkpoint.RecordBatchBinary:
		// Both body formats decode to the same pre-validated elements.
		return s.Apply(elems)
	case checkpoint.RecordDrain:
		s.Drain()
		return nil, nil
	case checkpoint.RecordBarrier:
		return nil, s.Barrier()
	}
	return nil, fmt.Errorf("serve: unknown record kind %d", kind)
}

// Apply feeds one batch through validation into graph and engine. It
// returns the accepted elements — elems itself when nothing was rejected,
// otherwise a scratch slice valid until the next Apply — and the first few
// element rejections joined (nil when everything was accepted).
func (s *State) Apply(elems []stream.Element) ([]stream.Element, error) {
	var errs []error
	accepted, partial, dropped := elems, false, 0
	for i := range elems {
		if err := s.applyElement(elems[i]); err != nil {
			if !partial {
				partial = true
				s.scratch = append(s.scratch[:0], elems[:i]...)
			}
			s.rejected++
			if len(errs) < maxReportedErrors {
				errs = append(errs, err)
			} else {
				dropped++
			}
			continue
		}
		s.ingested++
		if partial {
			s.scratch = append(s.scratch, elems[i])
		}
	}
	if partial {
		accepted = s.scratch
	}
	if dropped > 0 {
		errs = append(errs, fmt.Errorf("serve: %d further element errors", dropped))
	}
	return accepted, errors.Join(errs...)
}

// Refuse counts n elements the shell turned away unapplied (wedged log).
func (s *State) Refuse(n int) { s.rejected += int64(n) }

// applyElement validates one element against the canonical graph, then
// feeds graph and partitioner in lockstep. Validation up front keeps the
// two views consistent: anything the graph would reject never reaches the
// engine.
func (s *State) applyElement(el stream.Element) error {
	switch el.Kind {
	case stream.VertexElement:
		if s.g.HasVertex(el.V) {
			return fmt.Errorf("serve: duplicate vertex %d", el.V)
		}
		// Labels must survive the text codecs (WAL records, snapshots,
		// Export files); reject the ones that cannot up front, so the
		// accepted stream is always durable and replayable.
		if !checkpoint.CodecSafeLabel(el.Label) {
			return fmt.Errorf("serve: vertex %d label %q is not codec-safe", el.V, el.Label)
		}
		s.g.AddVertex(el.V, el.Label)
		if err := s.p.AddVertex(el.V, el.Label); err != nil {
			s.g.RemoveVertex(el.V)
			return err
		}
		s.pending = append(s.pending, el.V)
		return nil
	case stream.EdgeElement:
		// graph.AddEdge validates self-loops, unknown endpoints and
		// duplicates before mutating, so it is the single gatekeeper here.
		if err := s.g.AddEdge(el.V, el.U); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if err := s.p.AddEdge(el.V, el.U); err != nil {
			s.g.RemoveEdge(el.V, el.U)
			return err
		}
		// A late edge between two already-placed vertices is accounted
		// here; edges with a pending endpoint are accounted by sweep when
		// that endpoint lands in the table.
		s.account(el.V, el.U, 1)
		if s.edgeStamp != nil {
			s.edgeStamp[graph.Edge{U: el.V, V: el.U}.Normalize()] = s.ingested
		}
		return nil
	case stream.RemoveVertexElement:
		if !s.g.HasVertex(el.V) {
			return fmt.Errorf("serve: remove of unknown vertex %d", el.V)
		}
		// Engine first: every canonical-graph vertex is window-resident or
		// assigned in the core (graph and partitioner are fed in lockstep),
		// so this cannot fail; if it ever did, no other state has been
		// touched yet.
		if err := s.p.RemoveVertex(el.V); err != nil {
			return err
		}
		// Drift decrement before table and graph forget the vertex: table
		// entries only ever leave through this path (which decrements) or
		// a restream swap (which recounts from scratch).
		s.g.EachNeighbor(el.V, func(u graph.VertexID) bool {
			s.account(el.V, u, -1)
			if s.edgeStamp != nil {
				delete(s.edgeStamp, graph.Edge{U: el.V, V: u}.Normalize())
			}
			return true
		})
		// Tombstone the published placement and evict any sparse entry so
		// no reader — of this or any older table generation — resolves the
		// stale shard off a later recycled handle.
		s.tab.clear(el.V)
		if i := slices.Index(s.pending, el.V); i >= 0 {
			s.unpend(i)
		}
		s.g.RemoveVertex(el.V)
		return nil
	case stream.RemoveEdgeElement:
		if !s.g.HasEdge(el.V, el.U) {
			return fmt.Errorf("serve: remove of unknown edge {%d,%d}", el.V, el.U)
		}
		if err := s.p.RemoveEdge(el.V, el.U); err != nil {
			return err
		}
		s.g.RemoveEdge(el.V, el.U)
		s.account(el.V, el.U, -1)
		if s.edgeStamp != nil {
			delete(s.edgeStamp, graph.Edge{U: el.V, V: el.U}.Normalize())
		}
		return nil
	}
	return fmt.Errorf("serve: unknown element kind %d", el.Kind)
}

// account folds edge {u,v} into (d = +1) or out of (d = -1) the drift
// estimate. An edge is counted iff BOTH endpoints are in the table, which
// makes the accounting exactly-once: an add counts when the second
// endpoint is already placed, sweep counts when the second endpoint lands,
// and removals undo exactly what those counted.
func (s *State) account(u, v graph.VertexID, d int) {
	pu, ok := s.tab.Get(u)
	if !ok {
		return
	}
	if pv, ok := s.tab.Get(v); ok {
		s.observed += d
		if pu != pv {
			s.cut += d
		}
	}
}

// sweep mirrors freshly assigned vertices into the placement table and
// folds their edges into the drift estimate.
func (s *State) sweep() {
	cur := s.p.Assignment()
	for i := 0; i < len(s.pending); {
		v := s.pending[i]
		p := cur.Get(v)
		if p == partition.Unassigned {
			i++
			continue
		}
		s.tab = s.tab.set(v, p, s.g.NumVertices())
		s.g.EachNeighbor(v, func(u graph.VertexID) bool {
			s.account(v, u, 1)
			return true
		})
		s.sinceRestream++
		s.unpend(i)
	}
}

// unpend drops pending[i] (order is irrelevant: swap with the last).
func (s *State) unpend(i int) {
	last := len(s.pending) - 1
	s.pending[i] = s.pending[last]
	s.pending = s.pending[:last]
}

// Drain forces the assignment of every window-resident vertex, as if the
// stream had ended.
func (s *State) Drain() { s.p.Finish() }

// Barrier is the one window-empty barrier: drain, then reseed the engine
// in place with its own assignment. Every checkpoint flavour and the
// replay of a RecordBarrier go through it, so all of them leave the
// engine in the state a snapshot restore produces. The pending list is
// left alone: the next Publish mirrors those vertices from the reseeded
// assignment.
func (s *State) Barrier() error {
	s.Drain()
	return s.reseed(s.p.Assignment())
}

// reseed replaces the engine with a fresh core.Partitioner built from the
// effective config and live trie, seeded with a. Barrier, restream
// adoption and snapshot restore all reseed through here, so all three
// leave the engine in the same state (empty window, fresh seeded RNG,
// restored placements): a recovered server continues exactly like one
// that rebuilt in place. On error the old engine stays.
func (s *State) reseed(a *partition.Assignment) error {
	np, err := core.New(s.ccfg, s.trie)
	if err != nil {
		return err
	}
	na := np.Assignment()
	var serr error
	a.EachVertex(func(v graph.VertexID, p partition.ID) {
		if err := na.Set(v, p); err != nil && serr == nil {
			serr = err
		}
	})
	if serr == nil {
		s.p = np
	}
	return serr
}

// Published is one epoch of the serving state as readers on other
// goroutines see it: the placement table plus the statistics frozen at
// publication. Immutable except for the table's slots (placements and
// removals made after publication become visible to readers of this
// epoch too, monotonically).
type Published struct {
	Table *Table
	Stats Stats
}

// Publish opens a new epoch: it mirrors fresh assignments into the table
// and freezes the statistics.
func (s *State) Publish() *Published {
	s.sweep()
	s.epoch++
	cur := s.p.Assignment()
	st := Stats{
		Epoch:         s.epoch,
		K:             cur.K(),
		Ingested:      s.ingested,
		Rejected:      s.rejected,
		Vertices:      s.g.NumVertices(),
		Edges:         s.g.NumEdges(),
		Assigned:      cur.Len(),
		PendingWindow: s.g.NumVertices() - cur.Len(),
		ObservedEdges: s.observed,
		CutEdges:      s.cut,
		Imbalance:     metrics.VertexImbalance(cur),
		Sizes:         cur.Sizes(),
		Restreams:     s.restreams,
		RestreamLive:  s.restreaming,
		LastRestream:  s.lastRestream,
	}
	if s.observed > 0 {
		st.CutFraction = float64(s.cut) / float64(s.observed)
	}
	if s.winValid {
		st.WindowCutFraction = s.winRate
		st.WindowCutValid = true
	}
	return &Published{Table: s.tab, Stats: st}
}

// Drift rolls the drift window and returns the trigger ("cut" or
// "imbalance") of a restream the incremental estimators call for, or ""
// when none is due.
func (s *State) Drift() string {
	d := s.cfg.Drift
	// Close the open window once WindowEdges observed edges accumulated
	// in it, freezing its cut fraction as the rate the trigger compares.
	if n := s.observed - s.winStartObserved; d.WindowEdges > 0 && n >= d.WindowEdges {
		s.winRate = float64(s.cut-s.winStartCut) / float64(n)
		s.winValid = true
		s.winStartCut, s.winStartObserved = s.cut, s.observed
	}
	cur := s.p.Assignment()
	if s.restreaming || cur.Len() < d.MinAssigned {
		return ""
	}
	// The cooldown spaces restreams out; it does not gate the first one.
	if s.everRestream && s.sinceRestream < d.CooldownAssigned {
		return ""
	}
	// The last completed window's rate when windowing is configured (not
	// ok until one window has completed), the lifetime fraction otherwise.
	rate, ok := s.winRate, s.winValid
	if d.WindowEdges <= 0 {
		ok = s.observed > 0
		if ok {
			rate = float64(s.cut) / float64(s.observed)
		}
	}
	switch {
	case d.MaxCutFraction > 0 && ok && rate > d.MaxCutFraction:
		return "cut"
	case d.MaxImbalance > 0 && metrics.VertexImbalance(cur) > d.MaxImbalance:
		return "imbalance"
	}
	return ""
}

// Restreaming reports whether a BeginRestream awaits its Adopt.
func (s *State) Restreaming() bool { return s.restreaming }

// Assignment returns the live assignment; callers must Clone it before
// letting it leave the writer.
func (s *State) Assignment() *partition.Assignment { return s.p.Assignment() }

// clone deep-copies the canonical graph with fresh interners, so another
// goroutine can read the copy while the writer keeps mutating the
// original (graph.Clone shares the label interner, which is not
// concurrency-safe). keepV and keepE filter vertices and edges (nil keeps
// all); an edge additionally needs both endpoints in the copy.
func (s *State) clone(capHint int, keepV func(graph.VertexID) bool, keepE func(u, v graph.VertexID) bool) *graph.Graph {
	c := graph.NewWithCapacity(capHint)
	s.g.EachVertex(func(v graph.VertexID) bool {
		if keepV == nil || keepV(v) {
			l, _ := s.g.Label(v)
			c.AddVertex(v, l)
		}
		return true
	})
	s.g.EachEdge(func(u, v graph.VertexID) bool {
		if (keepV == nil || c.HasVertex(u) && c.HasVertex(v)) && (keepE == nil || keepE(u, v)) {
			// Both endpoints are in the copy; AddEdge cannot fail.
			if err := c.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
		return true
	})
	return c
}

// View deep-copies the assigned subgraph and its placements; window
// residents are left out.
func (s *State) View() *View {
	cur := s.p.Assignment()
	a := partition.MustNewAssignment(cur.K())
	g := s.clone(cur.Len(), func(v graph.VertexID) bool {
		p := cur.Get(v)
		if p == partition.Unassigned {
			return false
		}
		// p came from a live assignment over the same k; Set cannot fail.
		if err := a.Set(v, p); err != nil {
			panic(err)
		}
		return true
	}, nil)
	return &View{Graph: g, Assignment: a, Epoch: s.epoch}
}

// Snapshot returns what a durable snapshot of the current state holds.
// The graph and assignment are the live ones, for the caller to serialise
// before the next mutation. The state must be at a window-empty barrier
// (everything assigned): the snapshot codec has no representation for
// window residents.
func (s *State) Snapshot() (checkpoint.Meta, *graph.Graph, *partition.Assignment, error) {
	cur := s.p.Assignment()
	if cur.Len() != s.g.NumVertices() {
		return checkpoint.Meta{}, nil, nil, fmt.Errorf("serve: checkpoint with %d window-resident vertices", s.g.NumVertices()-cur.Len())
	}
	m := checkpoint.Meta{
		Epoch:            s.epoch,
		K:                cur.K(),
		ExpectedVertices: s.ccfg.Partition.ExpectedVertices,
		WindowSize:       s.ccfg.WindowSize,
		Threshold:        s.ccfg.Threshold,
		Slack:            s.ccfg.Partition.Slack,
		Seed:             s.ccfg.Partition.Seed,
		Ingested:         s.ingested,
		Rejected:         s.rejected,
		Cut:              s.cut,
		Observed:         s.observed,
		Restreams:        s.restreams,
		SinceRestream:    s.sinceRestream,
		EverRestream:     s.everRestream,
		VertsAtSwap:      s.vertsAtSwap,
	}
	if s.live != nil {
		var sb strings.Builder
		if err := query.WriteWorkload(&sb, s.live); err != nil {
			return checkpoint.Meta{}, nil, nil, err
		}
		m.Workload = sb.String()
	}
	return m, s.g, cur, nil
}

// Restore installs a recovered snapshot, as if the state had just
// performed the barrier the snapshot was taken at. It takes ownership of
// g.
func (s *State) Restore(m checkpoint.Meta, g *graph.Graph, a *partition.Assignment) error {
	if k := s.cfg.Core.Partition.K; m.K != k {
		return fmt.Errorf("serve: snapshot has k=%d, server is configured with k=%d", m.K, k)
	}
	if a.Len() != g.NumVertices() {
		return fmt.Errorf("serve: snapshot places %d of %d vertices (not a barrier snapshot)", a.Len(), g.NumVertices())
	}
	var missing error
	a.EachVertex(func(v graph.VertexID, _ partition.ID) {
		if missing == nil && !g.HasVertex(v) {
			missing = fmt.Errorf("serve: snapshot places vertex %d that is not in the graph", v)
		}
	})
	if missing != nil {
		return missing
	}
	if m.Workload != "" {
		// The snapshot was taken under a trie adopted from an observed
		// workload; the WAL tail was placed against it, so replay must be
		// too. Without the section the static cfg.Workload trie stands.
		w, err := query.ParseWorkload(strings.NewReader(m.Workload))
		if err != nil {
			return fmt.Errorf("serve: snapshot workload: %w", err)
		}
		trie, err := BuildTrie(w, s.cfg.Alphabet, s.cfg.MaxMotifVertices)
		if err != nil {
			return fmt.Errorf("serve: snapshot workload: %w", err)
		}
		s.trie, s.live = trie, w
	}
	if m.ExpectedVertices > 0 {
		s.ccfg.Partition.ExpectedVertices = m.ExpectedVertices
	}
	if err := s.reseed(a); err != nil {
		return err
	}
	s.g = g
	s.tab = buildTable(s.p.Assignment())
	s.pending = s.pending[:0]
	if s.edgeStamp != nil {
		// The snapshot codec carries no per-edge ages: stamp restored edges
		// with the snapshot's logical time — the most recent moment they
		// are known to have existed. WAL-tail replay then re-stamps any
		// edge the tail touches through the normal apply path.
		s.g.EachEdge(func(u, v graph.VertexID) bool {
			s.edgeStamp[graph.Edge{U: u, V: v}.Normalize()] = m.Ingested
			return true
		})
	}
	s.cut, s.observed = m.Cut, m.Observed
	s.ingested, s.rejected = m.Ingested, m.Rejected
	s.restreams = m.Restreams
	s.sinceRestream = m.SinceRestream
	s.everRestream = m.EverRestream
	s.vertsAtSwap = m.VertsAtSwap
	// Publish pre-increments, so the first publish after restore lands on
	// the snapshot's epoch — the same number an uninterrupted server
	// showed at the barrier.
	if m.Epoch > 0 {
		s.epoch = m.Epoch - 1
	}
	return nil
}

// Package serve is the online partition-serving runtime: the long-running
// layer that connects the streaming partitioner (internal/core) to a live
// query workload.
//
// A Server runs a single-writer ingest loop that drives a core.Partitioner
// through a bounded, batched mailbox with backpressure, while publishing
// copy-on-write assignment snapshots through an atomic pointer so any
// number of reader goroutines answer Where/Route lookups lock-free. A
// drift monitor maintains incremental cut-fraction and imbalance
// estimators as edges stream in; when either crosses its configured
// threshold the server kicks off a background restream (workload-aware
// LOOM, ReLDG or ReFennel) over a detached graph snapshot, then atomically
// swaps in the new assignment together with a migration plan.
//
// The process splits into a deterministic core and an I/O shell:
//
//   - Core: internal/serve/state.State — canonical graph, live
//     core.Partitioner, placement table, drift counters and restream
//     bookkeeping as a single-threaded state machine (see its package
//     doc). Touched only by the ingest loop goroutine.
//   - Shell: Server — mailbox and replies, WAL and snapshot files and the
//     wedge, heal timer, admission, decode pool, restream goroutine. It
//     drives the core and publishes what the core returns behind an
//     atomic.Pointer that readers load and answer from.
//   - Background: an in-flight restream works on a fully detached
//     state.Job (fresh interners, private trie) because the engine's
//     identity layer is not concurrency-safe; its outcome returns over a
//     channel and is adopted by the writer.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"loom/internal/checkpoint"
	"loom/internal/core"
	"loom/internal/fault"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/query"
	"loom/internal/serve/state"
	"loom/internal/stream"
)

// Defaults applied by New for zero-valued Config fields.
const (
	// DefaultMailbox is the mailbox capacity in batches.
	DefaultMailbox = 64
	// DefaultExpectedVertices sizes the LDG capacity constraint when the
	// caller does not know the eventual stream length. The constraint is
	// soft: once exceeded, placement degrades gracefully to least-loaded.
	DefaultExpectedVertices = 1 << 16
	// DefaultMinAssigned gates drift triggers until the estimate has a
	// meaningful sample.
	DefaultMinAssigned = 512
	// drainBurst bounds how many queued batches one loop cycle absorbs
	// before republishing the snapshot.
	drainBurst = 32
	// maxReportedErrors caps the per-stream batch errors FrameIngest
	// keeps; the rest are only counted.
	maxReportedErrors = 8
)

// ErrStopped is returned by operations on a stopped Server.
var ErrStopped = errors.New("serve: server stopped")

// ErrWedged is the base error of every wedged-ingest refusal: a WAL
// append (or restream-swap snapshot) failed, so the in-memory state
// leads the log and accepting more would acknowledge durability the
// directory cannot deliver. errors.Is(err, ErrWedged) matches. A
// successful Checkpoint — explicit, or scheduled by ReanchorPolicy —
// clears it.
var ErrWedged = errors.New("serve: persistence wedged")

// ErrNoPersistence is returned by Checkpoint on a server built without a
// data directory (New instead of Open).
var ErrNoPersistence = errors.New("serve: server has no persistence configured")

// The core's data types, under the names this package exports them by.
type (
	// DriftConfig parameterises the drift monitor and its restreams.
	DriftConfig = state.DriftConfig
	// View is a detached copy of the assigned serving state (ExportView).
	View = state.View
	// Move records one vertex whose shard changed at a restream swap.
	Move = state.Move
	// RestreamReport describes one background restream.
	RestreamReport = state.RestreamReport
)

// Config parameterises a Server.
type Config struct {
	// Core carries the LOOM parameters (partition config, window,
	// threshold...). Core.Partition.ExpectedVertices zero defaults to
	// DefaultExpectedVertices.
	Core core.Config
	// Workload summarises the query workload LOOM keeps intact; nil serves
	// with plain windowed LDG. The workload must not be mutated after New:
	// background restreams rebuild private tries from it.
	Workload *query.Workload
	// Alphabet pre-assigns signature factors so motif signatures are
	// deterministic and agree between the live trie and restream tries.
	Alphabet []graph.Label
	// MaxMotifVertices caps enumerated motif size (0 = package default).
	MaxMotifVertices int
	// Mailbox is the ingest queue capacity in batches; Ingest blocks
	// (backpressure) when it is full. Zero defaults to DefaultMailbox.
	Mailbox int
	// Drift configures degradation-triggered restreaming.
	Drift DriftConfig
	// Admission rate-limits ingest ahead of the mailbox; refused batches
	// fail fast with *OverloadError instead of blocking. Zero Rate
	// disables it.
	Admission AdmissionConfig
	// Reanchor makes a wedged server retry the re-anchoring snapshot
	// itself instead of waiting for an operator Checkpoint.
	Reanchor ReanchorPolicy
	// DecodeWorkers sizes the parallel binary-frame decode stage in
	// front of the writer loop (IngestFrames). Zero defaults to
	// GOMAXPROCS; the workers start lazily on first binary ingest.
	DecodeWorkers int
	// SnapshotEveryBatches bounds the WAL tail on long runs: after this
	// many accepted data batches the writer performs the same drain +
	// barrier + engine-reseed cycle an explicit Checkpoint does and writes
	// a durable snapshot, so recovery never replays more than roughly this
	// many batches. Like Checkpoint, the drain force-assigns window
	// residents; pick a period long enough that the placement-quality cost
	// is amortised. Zero disables the trigger. Ignored without
	// persistence.
	SnapshotEveryBatches int
	// DecaySpan ages edges out of restream scoring: when > 0, an edge
	// whose last add is more than DecaySpan accepted elements in the past
	// is excluded from the detached clone a background restream scores
	// over (a logical-time span: element counts, never the wall clock).
	// The canonical graph and the served placements are unaffected; only
	// restream scoring forgets stale structure. Zero keeps every edge
	// forever.
	DecaySpan int64
}

// ctrlKind discriminates control envelopes from data batches.
type ctrlKind uint8

const (
	ctrlNone ctrlKind = iota
	ctrlDrain
	ctrlRestream
	ctrlCheckpoint
	ctrlRun
)

type envelope struct {
	elems []stream.Element
	kind  ctrlKind
	// reply, buffered(1) when non-nil, receives the envelope's one answer.
	reply chan error
	// run is the ctrlRun payload: a read of the core that must happen on
	// the writer goroutine (Export, ExportView, Verify).
	run func(*state.State) error
	// trigger labels a ctrlRestream request ("manual", "workload", ...)
	// for the restream report and the migration-budget exemption.
	trigger string
	// raw is the binary frame payload elems were decoded from, when the
	// batch arrived through the binary decode stage: if the writer
	// accepts every element it is appended to the WAL verbatim instead
	// of re-encoding. rawExact means decode dropped nothing (no
	// intra-frame duplicates), i.e. raw describes exactly elems. The
	// buffers stay owned by the sender's frame job; the writer may read
	// them only until it releases the reply.
	raw      []byte
	rawExact bool
}

// Server is an online partition server. Ingest/IngestSync feed the graph
// stream; Where/Route/Stats answer from lock-free snapshots on any number
// of goroutines; Stop shuts the pipeline down gracefully.
type Server struct {
	cfg Config
	k   int

	mail chan envelope
	cur  atomic.Pointer[state.Published]
	quit chan struct{}
	done chan struct{}
	once sync.Once
	// aborted flips the quit path from graceful shutdown to a hard stop.
	aborted atomic.Bool
	// inflight counts senders between their quit-check and their enqueue,
	// so shutdown can quiesce the mailbox without stranding a reply.
	inflight atomic.Int64

	// persist is the durability layer; persist.store is nil on a server
	// built without a data directory and never changes once the loop
	// runs. The store itself is writer-owned; the counters are atomics so
	// Stats can read them from any goroutine.
	persist struct {
		store      *checkpoint.Store
		dir        string
		fsync      checkpoint.SyncPolicy
		walRecords atomic.Int64
		walBytes   atomic.Int64
		// walTail counts WAL records appended since the last successful
		// snapshot rotation — the tail a crash recovery would replay.
		walTail   atomic.Int64
		snapshots atomic.Int64
		lastErr   atomic.Pointer[string]
		// wedged flips when a WAL append fails: the in-memory state then
		// holds elements the log does not, so further ingest is refused
		// (acknowledging it would poison recovery). A successful snapshot
		// (Checkpoint, restream swap) captures the full state, rotates
		// the WAL past the gap and clears the wedge.
		wedged  atomic.Bool
		recover RecoverInfo
	}

	// admission is the ingest token bucket; nil when Admission.Rate is 0.
	// It runs on the caller's goroutine in send, ahead of the mailbox.
	admission *tokenBucket

	// workloadSrc is the live workload source installed by
	// SetWorkloadSource; nil serves the static Config.Workload. An
	// atomic pointer because the installer (query engine) and the
	// consumer (writer goroutine, at restream launch) are different
	// goroutines.
	workloadSrc atomic.Pointer[func() *query.Workload]

	// decode is the parallel binary-frame decode stage (ingest.go):
	// workers start lazily on the first IngestFrames call and exit with
	// quit. jobs carries frames to whichever worker is free; the
	// sequencer re-establishes frame order before the mailbox.
	decode struct {
		start    sync.Once
		jobs     chan *frameJob
		pool     sync.Pool
		inflight int
	}

	// heal is the self-healing re-anchor state (policy: cfg.Reanchor,
	// defaults applied). The atomics are readable from any goroutine
	// (Stats); everything else is writer-owned.
	heal struct {
		// retryCh is the armed retry timer; nil (blocking forever in the
		// loop select) when no retry is pending.
		retryCh <-chan time.Time
		backoff time.Duration
		// attempts/healed count re-anchor tries and successes; nextMS is
		// the currently armed backoff (0 = no retry pending).
		attempts atomic.Int64
		healed   atomic.Int64
		nextMS   atomic.Int64
	}

	// Writer-owned below: touched only by the loop goroutine. st is the
	// deterministic core; the rest is the shell's own bookkeeping.
	st *state.State
	// batchesSinceSnap counts accepted data batches toward the
	// Config.SnapshotEveryBatches periodic checkpoint trigger.
	batchesSinceSnap int
	// walEnc and walScratch encode the accepted subset of a batch whose
	// frame payload cannot be logged verbatim.
	walEnc     stream.FrameEncoder
	walScratch []byte
	// dirty is set by every mutation of the core and cleared by publish:
	// a cycle that ends clean opens no new epoch.
	dirty bool
	// The background restream: its outcome channel, its launch time and
	// the Restream caller to release at adoption.
	restreamCh    chan *state.Outcome
	restreamStart time.Time
	manualWait    chan error
}

// New starts a Server and its ingest loop.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.publish()
	go s.loop()
	return s, nil
}

// newServer validates cfg and builds a Server without publishing a
// snapshot or starting the loop, so Open can restore persisted state
// first.
func newServer(cfg Config) (*Server, error) {
	if cfg.Core.Partition.ExpectedVertices == 0 {
		cfg.Core.Partition.ExpectedVertices = DefaultExpectedVertices
	}
	if cfg.Mailbox == 0 {
		cfg.Mailbox = DefaultMailbox
	}
	if cfg.Mailbox < 1 {
		return nil, fmt.Errorf("serve: mailbox capacity %d < 1", cfg.Mailbox)
	}
	if cfg.Drift.MinAssigned == 0 {
		cfg.Drift.MinAssigned = DefaultMinAssigned
	}
	if cfg.Drift.CooldownAssigned == 0 {
		cfg.Drift.CooldownAssigned = cfg.Drift.MinAssigned
	}
	if cfg.Drift.Passes == 0 {
		cfg.Drift.Passes = 1
	}
	if r := &cfg.Reanchor; r.Enabled {
		if r.Initial <= 0 {
			r.Initial = DefaultReanchorInitial
		}
		if r.Max <= 0 {
			r.Max = DefaultReanchorMax
		}
		r.Max = max(r.Max, r.Initial)
		if r.Timer == nil {
			r.Timer = defaultReanchorTimer
		}
	}
	if cfg.Admission.Rate < 0 {
		return nil, fmt.Errorf("serve: admission rate %v < 0", cfg.Admission.Rate)
	}
	if cfg.DecodeWorkers < 0 {
		return nil, fmt.Errorf("serve: decode workers %d < 0", cfg.DecodeWorkers)
	}
	if cfg.SnapshotEveryBatches < 0 {
		return nil, fmt.Errorf("serve: snapshot every %d batches < 0", cfg.SnapshotEveryBatches)
	}
	st, err := state.New(state.Config{
		Core: cfg.Core, Workload: cfg.Workload, Alphabet: cfg.Alphabet,
		MaxMotifVertices: cfg.MaxMotifVertices, Drift: cfg.Drift, DecaySpan: cfg.DecaySpan,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		k:          cfg.Core.Partition.K,
		mail:       make(chan envelope, cfg.Mailbox),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		st:         st,
		restreamCh: make(chan *state.Outcome, 1),
	}
	if cfg.Admission.Rate > 0 {
		s.admission = newTokenBucket(cfg.Admission)
	}
	return s, nil
}

// Ingest enqueues a batch of stream elements and returns once the batch is
// accepted into the mailbox (blocking for backpressure when it is full).
// Element errors are counted in Stats().Rejected; use IngestSync to
// receive them.
func (s *Server) Ingest(elems []stream.Element) error {
	return s.send(envelope{elems: elems})
}

// call enqueues env and waits for the writer's answer to it.
func (s *Server) call(env envelope) error {
	env.reply = make(chan error, 1)
	if err := s.send(env); err != nil {
		return err
	}
	return <-env.reply
}

// IngestSync enqueues a batch and waits until the writer has processed it
// and published the resulting snapshot, returning the per-element errors
// (joined, capped) if any were rejected.
func (s *Server) IngestSync(elems []stream.Element) error {
	return s.call(envelope{elems: elems})
}

// Flush waits until everything enqueued before it has been processed and
// published.
func (s *Server) Flush() error { return s.IngestSync(nil) }

// Drain forces the assignment of every window-resident vertex, as if the
// stream had ended. Placement quality for those vertices may suffer (they
// are assigned before their remaining adjacency arrives); intended for
// end-of-stream, checkpointing, or tests. Ingest may continue afterwards.
func (s *Server) Drain() error { return s.call(envelope{kind: ctrlDrain}) }

// Restream requests a restream now, regardless of drift thresholds, and
// waits for the new assignment to be adopted. It fails if a restream is
// already in flight.
func (s *Server) Restream() error { return s.TriggerRestream("manual") }

// TriggerRestream is Restream with a caller-supplied trigger label for
// the restream report ("workload" for the query engine's message-rate
// trigger; empty defaults to "manual"). Triggers other than "manual" are
// subject to the Drift.MaxMigrationFraction budget.
func (s *Server) TriggerRestream(trigger string) error {
	if trigger == "" {
		trigger = "manual"
	}
	return s.call(envelope{kind: ctrlRestream, trigger: trigger})
}

// SetWorkloadSource installs (or, with nil, removes) a live workload
// source. When set, every subsequent loom-heuristic restream asks fn for
// the current observed workload and scores against it instead of the
// static Config.Workload (falling back to the static workload when fn
// returns nil or an empty workload). fn is called on the writer goroutine
// at restream launch and must be safe for that; the returned workload
// must not be mutated afterwards.
func (s *Server) SetWorkloadSource(fn func() *query.Workload) {
	if fn == nil {
		s.workloadSrc.Store(nil)
		return
	}
	s.workloadSrc.Store(&fn)
}

// DriftConfig returns the effective drift configuration (defaults
// applied). Safe for any goroutine; the query engine reads its
// MaxMessagesPerQuery/QueryWindow trigger parameters from it.
func (s *Server) DriftConfig() DriftConfig { return s.cfg.Drift }

// Export returns an independent copy of the current assignment (assigned
// vertices only).
func (s *Server) Export() (a *partition.Assignment, err error) {
	err = s.call(envelope{kind: ctrlRun, run: func(st *state.State) error {
		a = st.Assignment().Clone()
		return nil
	}})
	return a, err
}

// ExportView returns a detached copy of the assigned portion of the
// serving state — graph and placements — suitable for building a sharded
// query store (internal/store). Window residents are excluded: queries
// over the view see the placed portion of the graph only.
func (s *Server) ExportView() (v *View, err error) {
	err = s.call(envelope{kind: ctrlRun, run: func(st *state.State) error {
		v = st.View()
		return nil
	}})
	return v, err
}

// Verify recomputes the core's incremental state (drift counters,
// placement table, pending list, decay stamps) from scratch on the writer
// and reports the first disagreement. Tests and the chaos harness call it
// after every operation.
func (s *Server) Verify() error {
	return s.call(envelope{kind: ctrlRun, run: (*state.State).Verify})
}

// Checkpoint forces a durable snapshot now. Like Drain, it assigns every
// window-resident vertex first (placement quality for those may suffer);
// the engine is then reseeded at the barrier — exactly the reseed a
// restream swap performs — and the snapshot plus WAL rotation are on disk
// before Checkpoint returns. Fails with ErrNoPersistence on a server
// built without a data directory.
func (s *Server) Checkpoint() error {
	if s.persist.store == nil {
		return ErrNoPersistence
	}
	return s.call(envelope{kind: ctrlCheckpoint})
}

func (s *Server) send(env envelope) error {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	select {
	case <-s.quit:
		return ErrStopped
	default:
	}
	// Admission control and the accept failpoint gate data batches only:
	// control envelopes (drain, checkpoint, restream...) are operator
	// actions, not load.
	if env.kind == ctrlNone && len(env.elems) > 0 {
		if s.admission != nil {
			if wait, ok := s.admission.admit(len(env.elems)); !ok {
				s.admission.refused.Add(int64(len(env.elems)))
				return &OverloadError{RetryAfter: wait}
			}
		}
		if err := fault.Check(fault.ServeAccept); err != nil {
			return err
		}
	}
	select {
	case s.mail <- env:
		return nil
	case <-s.quit:
		return ErrStopped
	}
}

// Stop shuts the server down: no new batches are accepted, already-queued
// batches are processed, an in-flight background restream is waited for
// and adopted (deterministic checkpoint-after-quiesce — its result is
// never discarded), the window is drained so every ingested vertex has a
// placement, and a final snapshot is published — durably, when the server
// was opened with persistence. Where/Route/Stats keep answering from that
// snapshot. Stop blocks until the loop has exited and is safe to call
// more than once.
func (s *Server) Stop() {
	s.once.Do(func() { close(s.quit) })
	<-s.done
}

// Abort hard-stops the server: no draining, no window assignment, no
// final checkpoint — the closest a process can get to crashing on
// purpose. Queued batches and in-flight callers are refused with
// ErrStopped; Where/Route/Stats keep answering from the last published
// snapshot. With persistence enabled the data directory is left exactly
// as the WAL last recorded it, which is the state a crash recovery must
// cope with — the crash-recovery tests are built on this. Safe to call
// more than once; an Abort that races Stop yields whichever came first.
func (s *Server) Abort() {
	s.aborted.Store(true)
	s.once.Do(func() { close(s.quit) })
	<-s.done
}

// Where returns the partition serving vertex v, lock-free. ok is false
// while v is unknown or still awaiting assignment in the window.
//
//loom:hotpath
func (s *Server) Where(v graph.VertexID) (partition.ID, bool) {
	return s.cur.Load().Table.Get(v)
}

// RouteDecision is the outcome of routing a query's anchor vertices.
type RouteDecision struct {
	// Target is the partition owning the plurality of the known anchors,
	// or partition.Unassigned when none are known.
	Target partition.ID `json:"target"`
	// Known/Unknown count anchors with and without a placement.
	Known   int `json:"known"`
	Unknown int `json:"unknown"`
	// PerPartition counts known anchors per partition.
	PerPartition []int `json:"per_partition"`
}

// Route picks the shard a query touching the given vertices should be sent
// to: the partition owning the most of them (lowest ID on ties). Lock-free.
//
//loom:hotpath
func (s *Server) Route(vs ...graph.VertexID) RouteDecision {
	tab := s.cur.Load().Table
	//loom:allocok PerPartition escapes to the caller by contract; one small slice per routed query
	d := RouteDecision{Target: partition.Unassigned, PerPartition: make([]int, s.k)}
	for _, v := range vs {
		p, ok := tab.Get(v)
		if !ok {
			d.Unknown++
			continue
		}
		d.Known++
		d.PerPartition[p]++
	}
	best := 0
	for i, c := range d.PerPartition {
		if c > best {
			best = c
			d.Target = partition.ID(i)
		}
	}
	return d
}

// Stats returns the statistics frozen at the last published epoch, plus
// the live mailbox depth. Safe for any goroutine.
func (s *Server) Stats() Stats {
	st := Stats{Stats: s.cur.Load().Stats, MailboxDepth: len(s.mail), MailboxCap: cap(s.mail)}
	if s.admission != nil {
		st.Admission = &AdmissionStats{
			Rate:    s.admission.rate,
			Burst:   s.admission.burst,
			Refused: s.admission.refused.Load(),
		}
	}
	if s.persist.store != nil {
		ps := &PersistStats{
			Enabled:          true,
			Dir:              s.persist.dir,
			Fsync:            s.persist.fsync.String(),
			WALRecords:       s.persist.walRecords.Load(),
			WALBytes:         s.persist.walBytes.Load(),
			WALTail:          s.persist.walTail.Load(),
			Snapshots:        s.persist.snapshots.Load(),
			Wedged:           s.persist.wedged.Load(),
			Recover:          s.persist.recover,
			ReanchorAttempts: s.heal.attempts.Load(),
			Reanchors:        s.heal.healed.Load(),
			NextRetryMS:      s.heal.nextMS.Load(),
		}
		ps.State = s.persistState(ps.Wedged)
		if e := s.persist.lastErr.Load(); e != nil {
			ps.LastErr = *e
		}
		st.Persist = ps
	}
	return st
}

// loop is the single writer: the only goroutine that touches the core.
func (s *Server) loop() {
	defer close(s.done)
	for {
		select {
		case env := <-s.mail:
			s.handle(env)
		case out := <-s.restreamCh:
			s.adopt(out)
		case <-s.heal.retryCh:
			// nil when no retry is pending (blocks forever).
			s.reanchor()
		case <-s.quit:
			s.shutdown(s.aborted.Load())
			return
		}
	}
}

// handle processes env plus an opportunistic burst of already-queued
// batches, publishes one snapshot, releases the replies and answers the
// drift monitor. Reads of the core (ctrlRun) run after the publish,
// against a settled core, and a cycle of nothing but reads opens no
// epoch.
func (s *Server) handle(env envelope) {
	type pendingReply struct {
		ch  chan error
		err error
	}
	var replies []pendingReply
	var reads []envelope
	add := func(e envelope) {
		if e.kind == ctrlRun {
			reads = append(reads, e)
		} else if parked, err := s.process(e); !parked && e.reply != nil {
			replies = append(replies, pendingReply{ch: e.reply, err: err})
		}
	}
	add(env)
	for burst := 0; burst < drainBurst; burst++ {
		select {
		case next := <-s.mail:
			add(next)
		default:
			burst = drainBurst
		}
	}
	// Periodic checkpoint (Config.SnapshotEveryBatches): bound the WAL
	// tail by re-anchoring the log on a fresh snapshot after every N
	// accepted data batches — the same checkpoint an explicit Checkpoint
	// performs, with nobody waiting on it.
	if n := s.cfg.SnapshotEveryBatches; n > 0 && s.persist.store != nil && s.batchesSinceSnap >= n {
		s.batchesSinceSnap = 0
		_ = s.checkpoint()
	}
	if s.dirty {
		s.publish()
	}
	for _, r := range replies {
		r.ch <- r.err
	}
	for _, e := range reads {
		e.reply <- e.run(s.st)
	}
	if trigger := s.st.Drift(); trigger != "" {
		// Cannot fail: Drift asks only with vertices assigned and no
		// restream in flight.
		_ = s.launchRestream(trigger)
	}
}

// process applies one envelope. The returned error joins the first few
// element rejections (nil when everything was accepted). parked means the
// envelope's reply was stored to be answered later — a restream's, at
// adoption — and must not be answered by the caller.
func (s *Server) process(env envelope) (parked bool, err error) {
	s.dirty = true
	wedged := s.persist.store != nil && s.persist.wedged.Load()
	switch env.kind {
	case ctrlDrain:
		// The drain is part of the replayable history: it changes window
		// state and therefore every subsequent placement. Refuse it
		// outright while wedged — draining unlogged would diverge.
		if wedged {
			return false, fmt.Errorf("%w: drain refused; checkpoint to repair", ErrWedged)
		}
		return false, s.commit(checkpoint.RecordDrain, env)
	case ctrlCheckpoint:
		// The barrier failpoint refuses the checkpoint request before it
		// drains or reseeds anything: the caller sees the error, the
		// serving state is untouched.
		if err := fault.Check(fault.ServeBarrier); err != nil {
			return false, err
		}
		return false, s.checkpoint()
	case ctrlRestream:
		if err := s.launchRestream(env.trigger); err != nil {
			return false, err
		}
		s.manualWait = env.reply
		return true, nil
	}
	// Once wedged, the log is missing applied elements; accepting more
	// would acknowledge durability the directory cannot deliver, and
	// recovery would reject replayed records referencing the gap.
	if wedged && len(env.elems) > 0 {
		s.st.Refuse(len(env.elems))
		return false, fmt.Errorf("%w: refused %d elements; checkpoint to repair", ErrWedged, len(env.elems))
	}
	if len(env.elems) > 0 {
		s.batchesSinceSnap++
	}
	return false, s.commit(checkpoint.RecordBatch, env)
}

// commit applies one replayable operation to the core and then logs it,
// so the WAL holds exactly what ApplyRecord will be fed at recovery.
// Durability before acknowledgement: the record is in the WAL (fsynced
// per policy) before the caller releases the envelope's reply.
func (s *Server) commit(kind checkpoint.RecordKind, env envelope) error {
	accepted, err := s.st.ApplyRecord(kind, env.elems)
	if s.persist.store == nil || (kind == checkpoint.RecordBatch && len(accepted) == 0) {
		return err
	}
	if werr := s.log(kind, env, accepted); werr != nil {
		return errors.Join(err, werr)
	}
	return err
}

// log appends one record — an element-less drain/barrier marker, or the
// accepted elements of batch env — and maintains the persistence
// counters. A batch is logged as one binary frame payload: the original
// one, verbatim, when it describes exactly the accepted elements;
// otherwise — text ingest, decode-stage dedup, writer-side rejections —
// the accepted subset re-encoded, because replay applies WAL bodies as
// they are and fatally rejects anything the writer did not accept ("the
// log holds only once-accepted elements"). Whatever Apply accepted
// always encodes: labels are codec-safe and self-loops never pass the
// graph.
func (s *Server) log(kind checkpoint.RecordKind, env envelope, accepted []stream.Element) error {
	var n int
	var err error
	if kind != checkpoint.RecordBatch {
		n, err = s.persist.store.Append(kind, nil)
	} else {
		body := env.raw
		if !env.rawExact || len(accepted) != len(env.elems) {
			if body, err = s.walEnc.AppendPayload(s.walScratch[:0], accepted); err == nil {
				s.walScratch = body
			}
		}
		if err == nil {
			n, err = s.persist.store.AppendBinary(body)
		}
	}
	if err != nil {
		// The server wedges: the in-memory state now leads the log, so
		// further appends are pointless until a snapshot re-anchors the
		// history. The returned error wraps the underlying failure, NOT
		// ErrWedged: the operation WAS applied in memory — it is the
		// durability acknowledgement that failed. Only refusals of later
		// work (which is not applied) carry ErrWedged.
		s.wedge(err)
		return fmt.Errorf("serve: wal append: %w", err)
	}
	s.persist.walRecords.Add(1)
	s.persist.walBytes.Add(int64(n))
	s.persist.walTail.Add(1)
	return nil
}

// checkpoint is the one checkpoint of the shell — explicit, periodic and
// re-anchoring alike: the core's Barrier and its WAL record, a publish,
// and the snapshot of the window-empty state the barrier left. The
// record makes the drain + reseed replayable when the snapshot fails.
// While wedged (or if this append itself fails) the WAL cannot carry it,
// but the snapshot alone still re-anchors everything, so keep going. A
// failed snapshot on a wedged server leaves the wedge in place; the
// repair goes to the retry timer (reanchor re-arms it itself, after
// doubling the backoff).
func (s *Server) checkpoint() error {
	_, err := s.st.ApplyRecord(checkpoint.RecordBarrier, nil)
	if err != nil {
		s.notePersistErr(err) // unreachable with a validated config
	} else {
		if !s.persist.wedged.Load() {
			_ = s.log(checkpoint.RecordBarrier, envelope{}, nil)
		}
		s.publish()
		err = s.writeSnapshot()
	}
	if err != nil {
		s.scheduleReanchor()
	}
	return err
}

// wedge records a persistence failure that left the log behind the
// served state, and arms the self-healing retry.
func (s *Server) wedge(err error) {
	s.notePersistErr(err)
	s.persist.wedged.Store(true)
	s.scheduleReanchor()
}

func (s *Server) notePersistErr(err error) {
	msg := err.Error()
	s.persist.lastErr.Store(&msg)
}

// publish opens a new epoch of the core and makes it the one readers
// answer from.
func (s *Server) publish() {
	s.cur.Store(s.st.Publish())
	s.dirty = false
}

// writeSnapshot persists the core's current state, which must be at a
// window-empty barrier. A no-op without persistence.
func (s *Server) writeSnapshot() error {
	if s.persist.store == nil {
		return nil
	}
	m, g, a, err := s.st.Snapshot()
	if err == nil {
		err = s.persist.store.WriteSnapshot(m, g, a)
	}
	if err != nil {
		s.notePersistErr(err)
		return err
	}
	s.persist.snapshots.Add(1)
	// The snapshot captures everything the WAL may have missed and
	// rotates to a fresh segment: a wedged log is whole again and the
	// replayable tail is empty.
	s.persist.wedged.Store(false)
	s.persist.walTail.Store(0)
	s.batchesSinceSnap = 0
	return nil
}

// launchRestream detaches a restream job from the core and runs it on a
// background goroutine.
func (s *Server) launchRestream(trigger string) error {
	var observed func() *query.Workload
	if src := s.workloadSrc.Load(); src != nil {
		observed = *src
	}
	job, err := s.st.BeginRestream(trigger, observed)
	if err != nil {
		return err
	}
	s.restreamStart = time.Now()
	ch := s.restreamCh
	go func() { ch <- job.Run() }()
	return nil
}

// adopt hands a finished restream to the core and publishes the result
// before any waiting Restream caller is released, so a waiter's next
// Where/Stats observes the swapped state.
func (s *Server) adopt(out *state.Outcome) {
	reply := s.manualWait
	s.manualWait = nil
	swapped, err := s.st.Adopt(out, time.Since(s.restreamStart).Milliseconds())
	s.publish()
	if swapped && s.persist.store != nil {
		// The swap is a window-empty barrier right after an engine reseed:
		// exactly what a snapshot needs. Unlike a checkpoint, a swap is NOT
		// representable in the WAL (the merged assignment came from a
		// background pass), so if the write fails the log's timeline is now
		// behind the served state for good — wedge ingest until a snapshot
		// succeeds, exactly like a failed WAL append. Serving reads goes on.
		if serr := fault.Check(fault.ServeSwap); serr != nil {
			s.wedge(serr)
		} else if serr := s.writeSnapshot(); serr != nil {
			s.wedge(serr)
		}
	}
	if reply != nil {
		reply <- err
	}
}

// quiesce hands every queued envelope to each until the mailbox is empty
// and no sender is left between its quit-check and its enqueue. Called
// with quit closed, so no sender can start a new enqueue: once inflight
// reads zero, one more pass over the mailbox sees everything.
func (s *Server) quiesce(each func(envelope)) {
	for settled := false; ; {
		select {
		case env := <-s.mail:
			each(env)
		default:
			if settled {
				return
			}
			if s.inflight.Load() == 0 {
				settled = true
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}

// shutdown ends the loop. Gracefully (Stop), every batch that made it
// into the mailbox is processed and replied to, everything still in the
// window is assigned and the final snapshot is published and persisted.
// An abort (see Abort) refuses everything queued and closes the WAL
// without draining the window and without a final snapshot. Either way
// senders still deciding see the closed quit channel and return
// ErrStopped themselves.
func (s *Server) shutdown(abort bool) {
	s.quiesce(func(env envelope) {
		// A queued restream request would only launch work that is
		// guaranteed to be abandoned, and a read has no settled core to
		// run against; refuse both like an abort refuses everything.
		if abort || env.kind == ctrlRestream || env.kind == ctrlRun {
			if env.reply != nil {
				env.reply <- ErrStopped
			}
		} else if parked, err := s.process(env); !parked && env.reply != nil {
			env.reply <- err
		}
	})
	if !abort {
		// A restream in flight is waited for and adopted, never abandoned:
		// the worker always sends exactly one outcome, so this cannot hang,
		// and Stop's final state is deterministic — the drift-estimator
		// counters and the restreamed assignment survive instead of
		// depending on whether the swap won the race against shutdown. A
		// waiting Restream caller is released by adopt with the real outcome.
		if s.st.Restreaming() {
			s.adopt(<-s.restreamCh)
		}
		s.st.Drain()
		s.publish()
		// Graceful shutdown checkpoint: a restart from the data directory
		// comes up warm with an empty WAL tail. A write error is recorded
		// (Stats.Persist.LastErr); there is nobody left to hand it to.
		_ = s.writeSnapshot()
	}
	if s.persist.store != nil {
		if cerr := s.persist.store.Close(); cerr != nil {
			s.notePersistErr(cerr)
		}
	}
	if s.manualWait != nil {
		s.manualWait <- ErrStopped
		s.manualWait = nil
	}
}

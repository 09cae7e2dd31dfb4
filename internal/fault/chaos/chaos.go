// Package chaos is the randomized fault-schedule harness over the
// serving and durability layers. One Run is a whole adversarial life of
// a durable server, replayable from its seed: a generated graph stream
// is driven through ingest/drain/checkpoint/restream operations while a
// seeded failpoint registry injects ENOSPC, torn writes and fsync
// failures, the server is crash-stopped and recovered at random points,
// and the self-healing re-anchor timer is fired deterministically by the
// harness instead of a wall clock.
//
// The harness keeps a durability ledger: every applied operation is
// recorded with whether the server acknowledged it durable, and the
// durable prefix is re-derived at each crash (snapshot-covered history
// plus the acked WAL tail behind it). At the end the surviving
// operation history is replayed fault-free into a fresh control server,
// and the chaos survivor must serve identically — every placement and
// every replayable counter. That is the package's one theorem: no
// acknowledged operation is ever lost, and recovery converges to the
// never-faulted timeline.
//
// The fault registry is process-wide, so Runs must not execute
// concurrently with each other or with other registry users.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"loom/internal/core"
	"loom/internal/fault"
	"loom/internal/gen"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/query"
	"loom/internal/serve"
	"loom/internal/stream"
)

// Options parameterises one chaos run.
type Options struct {
	// Scratch is the directory temp data directories are created under
	// (required; tests pass t.TempDir()).
	Scratch string
	// Vertices is the generated graph size (0 = 220).
	Vertices int
	// MaxIters caps driver iterations as a hang backstop (0 = 512).
	MaxIters int
}

// Report summarises what one run exercised.
type Report struct {
	Seed       int64
	K          int
	Elements   int
	Ops        int // applied operations in the final history
	Batches    int // applied batch ops
	Binary     int // batch ops driven through the binary wire path
	Removals   int // removal elements spliced into the schedule
	Readds     int // removed vertices re-added (ident-handle recycling)
	Refused    int // batches refused before application (wedge/accept)
	Unacked    int // ops applied but not acknowledged durable
	Crashes    int
	Reanchors  int // self-healing snapshot attempts fired by the harness
	Restreams  int
	Injections int // failpoint triggers across all sites
}

type opKind int

const (
	opBatch opKind = iota
	opDrain
	opBarrier // explicit checkpoint or a fired self-healing re-anchor
	opRestream
)

// op is one applied operation in the durability ledger.
type op struct {
	kind  opKind
	elems []stream.Element // opBatch only
	acked bool
}

// Sentinel errors armed on the request-refusing failpoints, so the
// driver can tell "refused before touching state" from "applied but the
// durability acknowledgement failed".
var (
	errAcceptRefused  = errors.New("chaos: accept failpoint refused the batch")
	errBarrierRefused = errors.New("chaos: barrier failpoint refused the checkpoint")
	errDecodeRefused  = errors.New("chaos: decode failpoint poisoned the frame")
)

// timerHook is the injected ReanchorPolicy.Timer: retries fire when the
// harness says so, never from a wall clock.
type timerHook struct {
	mu    sync.Mutex
	chs   []chan time.Time
	fired int
}

func (h *timerHook) timer(time.Duration) <-chan time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch := make(chan time.Time, 1)
	h.chs = append(h.chs, ch)
	return ch
}

func (h *timerHook) unfired() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.chs) - h.fired
}

func (h *timerHook) fireNext() {
	h.mu.Lock()
	ch := h.chs[h.fired]
	h.fired++
	h.mu.Unlock()
	ch <- time.Time{}
}

// spinBudget bounds every wait: ~tens of millions of yields before the
// harness declares a hang instead of blocking forever.
const spinBudget = 1 << 26

func spinUntil(cond func() bool) bool {
	for i := 0; i < spinBudget; i++ {
		if cond() {
			return true
		}
		runtime.Gosched()
	}
	return cond()
}

// buildRegistry arms the randomized fault schedule. Probabilities are
// drawn from the registry's own seeded RNG at hit time, so the schedule
// is a pure function of the seed and the (deterministic) hit sequence.
func buildRegistry(seed int64) *fault.Registry {
	r := fault.NewRegistry(seed)
	r.FailProb(fault.WALAppend, fault.ErrNoSpace, 0.03)
	r.Add(fault.WALFrameWrite, fault.Rule{Prob: 0.02, Injection: fault.Injection{Err: fault.ErrNoSpace, ShortWrite: 5}})
	r.FailProb(fault.WALSync, fault.ErrNoSpace, 0.02)
	r.FailProb(fault.SnapWrite, fault.ErrNoSpace, 0.10)
	r.FailProb(fault.SnapSync, fault.ErrNoSpace, 0.05)
	r.FailProb(fault.SnapRename, fault.ErrNoSpace, 0.05)
	r.FailProb(fault.SegPrune, fault.ErrNoSpace, 0.15)
	r.FailProb(fault.ServeSwap, fault.ErrNoSpace, 0.20)
	r.FailProb(fault.ServeBarrier, errBarrierRefused, 0.08)
	r.FailProb(fault.ServeAccept, errAcceptRefused, 0.04)
	r.FailProb(fault.WireDecode, errDecodeRefused, 0.03)
	return r
}

// serveConfig is the (deterministic) serving configuration shared by the
// chaos server, every post-crash incarnation, and the control.
func serveConfig(w *query.Workload, alphabet []graph.Label, n, k int, hook *timerHook) serve.Config {
	return serve.Config{
		Core: core.Config{
			Partition:  partition.Config{K: k, ExpectedVertices: n, Slack: 1.2, Seed: 1},
			WindowSize: 64,
			Threshold:  0.05,
		},
		Workload: w,
		Alphabet: alphabet,
		Reanchor: serve.ReanchorPolicy{
			Enabled: true,
			Initial: time.Millisecond,
			Max:     8 * time.Millisecond,
			Timer:   hook.timer,
		},
	}
}

// fingerprint is the replayable slice of Stats: everything excluded here
// is either wall-clock (restream durations), live plumbing (mailbox,
// admission, persistence counters) or documented as non-replayable
// (Epoch publication counts, Rejected — wedge refusals inflate it on the
// chaos side only).
type fingerprint struct {
	K             int
	Ingested      int64
	Vertices      int
	Edges         int
	Assigned      int
	PendingWindow int
	ObservedEdges int
	CutEdges      int
	Restreams     int
	Sizes         []int
}

func fingerprintOf(st serve.Stats) fingerprint {
	return fingerprint{
		K:             st.K,
		Ingested:      st.Ingested,
		Vertices:      st.Vertices,
		Edges:         st.Edges,
		Assigned:      st.Assigned,
		PendingWindow: st.PendingWindow,
		ObservedEdges: st.ObservedEdges,
		CutEdges:      st.CutEdges,
		Restreams:     st.Restreams,
		Sizes:         st.Sizes,
	}
}

func (a fingerprint) equal(b fingerprint) bool {
	if a.K != b.K || a.Ingested != b.Ingested || a.Vertices != b.Vertices ||
		a.Edges != b.Edges || a.Assigned != b.Assigned || a.PendingWindow != b.PendingWindow ||
		a.ObservedEdges != b.ObservedEdges || a.CutEdges != b.CutEdges || a.Restreams != b.Restreams ||
		len(a.Sizes) != len(b.Sizes) {
		return false
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] {
			return false
		}
	}
	return true
}

// injectChurn splices removal (and re-add) elements into an insert-only
// stream, so the chaos schedule drives the full deletion surface through
// its randomized op mix: removals of resident and assigned vertices, edge
// removals, and ident-handle recycling via remove→re-add of the same ID —
// across both ingest front doors, crashes, recoveries and restreams. Any
// rejections the removals provoke later in the stream (edges into a
// removed vertex) are part of the timeline and reproduce identically in
// the control replay.
func injectChurn(elems []stream.Element, rng *rand.Rand, rep *Report) []stream.Element {
	out := make([]stream.Element, 0, len(elems)+len(elems)/8)
	labels := make(map[graph.VertexID]graph.Label)
	var liveV []graph.VertexID
	var liveE [][2]graph.VertexID
	for _, el := range elems {
		out = append(out, el)
		switch el.Kind {
		case stream.VertexElement:
			labels[el.V] = el.Label
			liveV = append(liveV, el.V)
		case stream.EdgeElement:
			liveE = append(liveE, [2]graph.VertexID{el.V, el.U})
		}
		x := rng.Float64()
		switch {
		case x < 0.04 && len(liveV) > 0:
			i := rng.Intn(len(liveV))
			v := liveV[i]
			liveV[i] = liveV[len(liveV)-1]
			liveV = liveV[:len(liveV)-1]
			// The vertex takes its incident edges with it.
			kept := liveE[:0]
			for _, e := range liveE {
				if e[0] != v && e[1] != v {
					kept = append(kept, e)
				}
			}
			liveE = kept
			out = append(out, stream.Element{Kind: stream.RemoveVertexElement, V: v})
			rep.Removals++
			if rng.Float64() < 0.5 {
				// Re-add under the same ID: the serving stack must hand the
				// recycled handle a fresh, unplaced identity.
				out = append(out, stream.Element{Kind: stream.VertexElement, V: v, Label: labels[v]})
				liveV = append(liveV, v)
				rep.Readds++
			}
		case x < 0.08 && len(liveE) > 0:
			i := rng.Intn(len(liveE))
			e := liveE[i]
			liveE[i] = liveE[len(liveE)-1]
			liveE = liveE[:len(liveE)-1]
			out = append(out, stream.Element{Kind: stream.RemoveEdgeElement, V: e[0], U: e[1]})
			rep.Removals++
		}
	}
	return out
}

// Run executes one seeded chaos schedule and returns its report, or an
// error describing the first violated invariant.
func Run(seed int64, opts Options) (*Report, error) {
	if opts.Scratch == "" {
		return nil, errors.New("chaos: Options.Scratch is required")
	}
	n := opts.Vertices
	if n == 0 {
		n = 220
	}
	maxIters := opts.MaxIters
	if maxIters == 0 {
		maxIters = 512
	}
	rng := rand.New(rand.NewSource(seed))
	k := 2 + rng.Intn(3)

	alphabet := gen.DefaultAlphabet(4)
	g, err := gen.PlantedPartitionDegrees(n, k, 8, 2, &gen.UniformLabeler{Alphabet: alphabet, Rand: rng}, rng)
	if err != nil {
		return nil, fmt.Errorf("chaos: generate: %w", err)
	}
	w, err := query.GenerateWorkload(query.DefaultMix(8), alphabet, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, fmt.Errorf("chaos: workload: %w", err)
	}
	elems, err := stream.FromGraph(g, stream.TemporalOrder, nil)
	if err != nil {
		return nil, fmt.Errorf("chaos: stream: %w", err)
	}
	rep := &Report{Seed: seed, K: k}
	elems = injectChurn(elems, rand.New(rand.NewSource(seed+2)), rep)
	rep.Elements = len(elems)

	dir, err := os.MkdirTemp(opts.Scratch, "chaos-run-")
	if err != nil {
		return nil, err
	}
	reg := buildRegistry(seed ^ 0x5eed)

	hook := &timerHook{}
	srv, err := serve.Open(serveConfig(w, alphabet, n, k, hook), serve.PersistOptions{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("chaos: open: %w", err)
	}
	stopped := false
	defer func() {
		fault.Disable()
		if !stopped {
			srv.Abort()
		}
	}()

	var history []op
	var frameEnc stream.FrameEncoder
	var frameBuf []byte
	lastDurable := 0
	snapsSeen := srv.Stats().Persist.Snapshots
	cursor := 0
	crashAt := 5 + rng.Intn(30)
	reanchorBase := int64(0) // attempts carried by previous incarnations

	// durablePrefix is what a crash right now must preserve: everything a
	// snapshot covered, plus the acked (fsynced WAL) ops behind it up to
	// the first unacknowledged one.
	durablePrefix := func() []op {
		out := history[:lastDurable]
		for _, o := range history[lastDurable:] {
			if !o.acked {
				break
			}
			out = append(out, o)
		}
		return out
	}
	// afterOp advances the snapshot-covered durability mark: a snapshot
	// landing on an unwedged server re-anchors the WHOLE applied history,
	// including previously unacknowledged operations. It also closes every
	// step with the server's recompute-from-scratch check, so a fault that
	// skews the incremental state is caught at the step that caused it.
	afterOp := func() error {
		st := srv.Stats()
		if st.Persist.Snapshots > snapsSeen {
			snapsSeen = st.Persist.Snapshots
			if !st.Persist.Wedged {
				lastDurable = len(history)
			}
		}
		if err := srv.Verify(); err != nil {
			return fmt.Errorf("chaos: after %d ops: %w", len(history), err)
		}
		return nil
	}
	attempts := func() int64 { return reanchorBase + srv.Stats().Persist.ReanchorAttempts }
	// fireReanchor fires one armed self-healing retry and waits for the
	// attempt to settle; the attempt is itself a history-visible barrier
	// (drain + engine reseed), acknowledged iff its snapshot landed.
	fireReanchor := func() error {
		if !spinUntil(func() bool { return hook.unfired() > 0 }) {
			return errors.New("chaos: wedged server never armed a re-anchor retry")
		}
		before := attempts()
		hook.fireNext()
		if !spinUntil(func() bool { return attempts() > before }) {
			return errors.New("chaos: fired re-anchor retry never ran")
		}
		rep.Reanchors++
		history = append(history, op{kind: opBarrier, acked: !srv.Stats().Persist.Wedged})
		return afterOp()
	}

	for iter := 0; cursor < len(elems) && iter < maxIters; iter++ {
		if srv.Stats().Persist.Wedged && hook.unfired() > 0 {
			if err := fireReanchor(); err != nil {
				return nil, err
			}
			continue
		}
		x := rng.Float64()
		crash := iter == crashAt || x >= 0.94
		switch {
		case crash:
			fault.Disable()
			srv.Abort()
			rep.Crashes++
			history = durablePrefix()
			for i := range history {
				history[i].acked = true
			}
			lastDurable = len(history)
			hook = &timerHook{}
			reanchorBase = 0
			srv, err = serve.Open(serveConfig(w, alphabet, n, k, hook), serve.PersistOptions{Dir: dir})
			if err != nil {
				return nil, fmt.Errorf("chaos: recovery after crash %d failed: %w", rep.Crashes, err)
			}
			snapsSeen = srv.Stats().Persist.Snapshots
			fault.Enable(reg)
		case x < 0.70: // ingest a batch
			size := 16 + rng.Intn(48)
			end := min(cursor+size, len(elems))
			chunk := elems[cursor:end]
			cursor = end
			// Roughly half the batches travel the binary wire path: encode
			// the chunk as one frame and push it through the parallel decode
			// stage, so the chaos schedule interleaves both ingest front
			// doors against the same fault registry. A binary batch is
			// equivalent to the IngestSync of the same chunk (the control
			// replays it that way), and its stream-fatal refusals and
			// unacked durability errors classify identically.
			binary := rng.Float64() < 0.5
			var err error
			if binary {
				frame, encErr := frameEnc.AppendFrame(frameBuf[:0], chunk)
				if encErr != nil {
					return nil, fmt.Errorf("chaos: frame encode: %w", encErr)
				}
				frameBuf = frame
				res, ferr := srv.IngestFrames(bytes.NewReader(frame))
				if ferr == nil {
					ferr = res.Err()
				}
				err = ferr
				rep.Binary++
			} else {
				err = srv.IngestSync(chunk)
			}
			switch {
			case errors.Is(err, errAcceptRefused), errors.Is(err, errDecodeRefused), errors.Is(err, serve.ErrWedged):
				// Refused before touching state — at the admission gate or
				// as a poisoned binary frame that never reached the writer:
				// the elements are simply gone from this timeline (later
				// edges referencing them will be rejected — identically in
				// the control).
				rep.Refused++
			case err != nil && errors.Is(err, fault.ErrInjected):
				// Applied in memory, durability acknowledgement failed.
				rep.Batches++
				rep.Unacked++
				history = append(history, op{kind: opBatch, elems: chunk})
			default:
				// nil, or ordinary element rejections joined into err:
				// applied and acknowledged.
				rep.Batches++
				history = append(history, op{kind: opBatch, elems: chunk, acked: true})
			}
		case x < 0.80: // drain barrier
			err := srv.Drain()
			switch {
			case errors.Is(err, serve.ErrWedged):
			case err == nil:
				history = append(history, op{kind: opDrain, acked: true})
			default:
				history = append(history, op{kind: opDrain})
			}
		case x < 0.88: // explicit checkpoint
			err := srv.Checkpoint()
			if errors.Is(err, errBarrierRefused) {
				break
			}
			acked := err == nil || !srv.Stats().Persist.Wedged
			history = append(history, op{kind: opBarrier, acked: acked})
		default: // manual restream
			if srv.Stats().Assigned == 0 {
				break
			}
			if err := srv.Restream(); err == nil {
				rep.Restreams++
				history = append(history, op{kind: opRestream, acked: !srv.Stats().Persist.Wedged})
			}
		}
		if err := afterOp(); err != nil {
			return nil, err
		}
	}
	if cursor < len(elems) {
		return nil, fmt.Errorf("chaos: driver stalled with %d elements unconsumed", len(elems)-cursor)
	}

	// End of schedule: stop injecting, let the server heal itself, close
	// the history with a full drain, and take the survivor's fingerprint.
	fault.Disable()
	for srv.Stats().Persist.Wedged {
		if err := fireReanchor(); err != nil {
			return nil, err
		}
	}
	if err := srv.Drain(); err != nil {
		return nil, fmt.Errorf("chaos: final drain: %w", err)
	}
	history = append(history, op{kind: opDrain, acked: true})
	afterOp()
	if lastDurable != len(history) {
		// The healing snapshot plus the acked tail must cover everything.
		for _, o := range history[lastDurable:] {
			if !o.acked {
				return nil, errors.New("chaos: healed server left unacknowledged history")
			}
		}
	}
	rep.Ops = len(history)
	for _, p := range fault.Points() {
		rep.Injections += reg.Fired(p)
	}

	// Control: replay the surviving history, fault-free, into a fresh
	// server. The chaos survivor must be indistinguishable from it.
	ctrlDir, err := os.MkdirTemp(opts.Scratch, "chaos-control-")
	if err != nil {
		return nil, err
	}
	ctrl, err := serve.Open(serveConfig(w, alphabet, n, k, &timerHook{}), serve.PersistOptions{Dir: ctrlDir})
	if err != nil {
		return nil, fmt.Errorf("chaos: control open: %w", err)
	}
	defer ctrl.Stop()
	for i, o := range history {
		switch o.kind {
		case opBatch:
			// Element rejections (edges into refused-batch gaps) are part
			// of the timeline and must reproduce; any other error is not.
			if err := ctrl.IngestSync(o.elems); err != nil &&
				(errors.Is(err, serve.ErrWedged) || errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrStopped)) {
				return nil, fmt.Errorf("chaos: control refused batch op %d: %w", i, err)
			}
		case opDrain:
			if err := ctrl.Drain(); err != nil {
				return nil, fmt.Errorf("chaos: control drain op %d: %w", i, err)
			}
		case opBarrier:
			if err := ctrl.Checkpoint(); err != nil {
				return nil, fmt.Errorf("chaos: control checkpoint op %d: %w", i, err)
			}
		case opRestream:
			if err := ctrl.Restream(); err != nil {
				return nil, fmt.Errorf("chaos: control restream op %d: %w", i, err)
			}
		}
	}

	got, want := fingerprintOf(srv.Stats()), fingerprintOf(ctrl.Stats())
	if !got.equal(want) {
		return nil, fmt.Errorf("chaos: survivor diverged from control:\n got %+v\nwant %+v", got, want)
	}
	for _, v := range g.Vertices() {
		gp, gok := srv.Where(v)
		cp, cok := ctrl.Where(v)
		if gp != cp || gok != cok {
			return nil, fmt.Errorf("chaos: Where(%d) = %v,%v on survivor, %v,%v on control", v, gp, gok, cp, cok)
		}
	}
	srv.Stop()
	stopped = true
	return rep, nil
}

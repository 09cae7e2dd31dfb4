// Package fault is a deterministic, seedable failpoint registry: named
// injection sites threaded through the durability and serving layers so
// the real I/O code paths can be exercised under adversarial failures
// (ENOSPC, short writes, fsync errors, injected latency) instead of
// hand-forced flags.
//
// The registry is process-wide and off by default. A disabled failpoint
// costs one atomic pointer load and a nil check — cheap enough to sit on
// //loom:hotpath functions (the WAL append consults one per record).
// Tests and chaos harnesses build a Registry from a seed, arm rules on
// the points they want to break, and Enable it; every trigger decision
// (probabilistic rules included) is drawn from the registry's seeded
// *rand.Rand, so a whole chaos run is replayable from its seed.
//
// Because the registry is process-wide, tests that Enable one must not
// run in parallel with other registry users in the same process; pair
// every Enable with a deferred Disable.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// A Point names one failpoint site. The constants below are the sites
// threaded through internal/checkpoint and internal/serve; the registry
// itself accepts any Point, so tests can invent private ones.
type Point string

const (
	// WALAppend fires at the top of a WAL record append, before any
	// bytes are written: the append fails cleanly with no torn frame.
	WALAppend Point = "wal/append"
	// WALFrameWrite fires at the frame write itself. With ShortWrite set
	// it leaves a deliberately torn frame prefix on disk before failing,
	// the exact shape a crash mid-write leaves.
	WALFrameWrite Point = "wal/frame-write"
	// WALSync fires at the per-record fsync (SyncAlways only).
	WALSync Point = "wal/sync"
	// WALReadCorrupt fires when a segment file is read back during
	// recovery: the last byte of the segment image is flipped, tearing
	// the tail the way on-disk corruption would.
	WALReadCorrupt Point = "wal/read-corrupt"
	// SnapWrite fires before the snapshot body is written to the temp
	// file (ENOSPC during the temp write).
	SnapWrite Point = "snap/write"
	// SnapSync fires before the snapshot temp file is fsynced.
	SnapSync Point = "snap/sync"
	// SnapRename fires before the temp file is renamed into place.
	SnapRename Point = "snap/rename"
	// SnapReadSkip fires per snapshot file considered during recovery:
	// the file is treated as damaged and passed over, exercising the
	// fall-back-to-previous-generation path.
	SnapReadSkip Point = "snap/read-skip"
	// SegPrune fires at snapshot/segment pruning: the prune pass is
	// skipped wholesale, as a failed unlink would leave it.
	SegPrune Point = "seg/prune"
	// ServeAccept fires in Server.send before a data batch is enqueued:
	// the batch is refused before touching any state.
	ServeAccept Point = "serve/accept"
	// ServeSwap fires at the restream swap's snapshot write: the swap
	// itself lands but its durability anchor fails, wedging the log.
	ServeSwap Point = "serve/swap"
	// ServeBarrier fires at the checkpoint barrier, failing the
	// checkpoint request before it drains or reseeds anything.
	ServeBarrier Point = "serve/barrier"
	// WireDecode fires in binary ingest before a frame is parsed: the
	// frame is treated as malformed (poisoned) and the stream is refused
	// with a typed error; nothing from the frame reaches the writer or
	// the WAL.
	WireDecode Point = "wire/decode"
	// ServeDecodeStall fires as binary ingest starts decoding a frame;
	// intended for latency-only injections that simulate a slow decode —
	// the stream must stay ordered and correct, just slower.
	ServeDecodeStall Point = "serve/decode-stall"
)

// Points returns every named failpoint site, in declaration order.
func Points() []Point {
	return []Point{
		WALAppend, WALFrameWrite, WALSync, WALReadCorrupt,
		SnapWrite, SnapSync, SnapRename, SnapReadSkip, SegPrune,
		ServeAccept, ServeSwap, ServeBarrier,
		WireDecode, ServeDecodeStall,
	}
}

// ErrInjected is the base error every injected failure wraps, so callers
// can tell injected faults from organic ones with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// ErrNoSpace is an ENOSPC-shaped injected error (wraps ErrInjected).
var ErrNoSpace = fmt.Errorf("%w: no space left on device", ErrInjected)

// Injection is what a triggered failpoint tells its site to do.
type Injection struct {
	// Err is the error to inject; nil means ErrInjected.
	Err error
	// ShortWrite asks a write-shaped site to emit only this many bytes
	// of its payload before failing (0 = no bytes). Only WALFrameWrite
	// honours it today.
	ShortWrite int
	// Latency is slept (via the registry's sleep function) before the
	// site proceeds. A latency-only injection (Err == nil, ShortWrite ==
	// 0 with Delay true) delays without failing.
	Latency time.Duration
	// DelayOnly marks a pure-latency injection: the site sleeps and then
	// continues normally instead of failing.
	DelayOnly bool
}

// Failure returns the error the site should surface.
func (i *Injection) Failure() error {
	if i.Err != nil {
		return i.Err
	}
	return ErrInjected
}

// Rule arms one behaviour on a point.
type Rule struct {
	// Skip ignores the first Skip hits before the rule arms.
	Skip int
	// Count caps how many times the rule triggers; 0 = unlimited.
	Count int
	// Prob triggers the rule on each armed hit with this probability,
	// drawn from the registry's seeded RNG. 0 (or >= 1) means always.
	Prob float64
	// Injection is delivered on each trigger.
	Injection Injection
}

type armedRule struct {
	rule  Rule
	skip  int
	fired int
}

// Registry holds the armed rules. Safe for concurrent use; trigger
// decisions are serialized under one mutex so a single-goroutine driver
// replays identically from the seed.
type Registry struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[Point][]*armedRule
	hits  map[Point]int
	fired map[Point]int
	sleep func(time.Duration)
}

// NewRegistry builds an empty registry whose probabilistic decisions are
// drawn from a *rand.Rand seeded with seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[Point][]*armedRule),
		hits:  make(map[Point]int),
		fired: make(map[Point]int),
	}
}

// Add arms one rule on p. Rules are consulted in Add order; the first
// one that triggers wins the hit.
func (r *Registry) Add(p Point, rule Rule) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules[p] = append(r.rules[p], &armedRule{rule: rule, skip: rule.Skip})
	return r
}

// Fail arms an always-trigger error on p.
func (r *Registry) Fail(p Point, err error) *Registry {
	return r.Add(p, Rule{Injection: Injection{Err: err}})
}

// FailOnce arms a single-shot error on p.
func (r *Registry) FailOnce(p Point, err error) *Registry {
	return r.Add(p, Rule{Count: 1, Injection: Injection{Err: err}})
}

// FailN arms an error that triggers on the next n hits of p.
func (r *Registry) FailN(p Point, err error, n int) *Registry {
	return r.Add(p, Rule{Count: n, Injection: Injection{Err: err}})
}

// FailProb arms an error that triggers each hit with probability prob.
func (r *Registry) FailProb(p Point, err error, prob float64) *Registry {
	return r.Add(p, Rule{Prob: prob, Injection: Injection{Err: err}})
}

// ShortWriteOnce arms a single torn write of n payload bytes on p.
func (r *Registry) ShortWriteOnce(p Point, n int) *Registry {
	return r.Add(p, Rule{Count: 1, Injection: Injection{Err: ErrNoSpace, ShortWrite: n}})
}

// SetSleep installs the function latency injections sleep with. The
// registry never reads the clock itself; without a sleep function,
// latency injections are no-ops. (Tests typically pass time.Sleep.)
func (r *Registry) SetSleep(f func(time.Duration)) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sleep = f
	return r
}

// Hits reports how many times p was consulted while this registry was
// enabled; Fired reports how many of those hits triggered a rule.
func (r *Registry) Hits(p Point) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[p]
}

// Fired reports how many hits on p triggered an injection.
func (r *Registry) Fired(p Point) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired[p]
}

// hit records one consultation of p and returns the triggered injection,
// if any.
func (r *Registry) hit(p Point) *Injection {
	r.mu.Lock()
	r.hits[p]++
	var out *Injection
	for _, ar := range r.rules[p] {
		if ar.skip > 0 {
			ar.skip--
			continue
		}
		if ar.rule.Count > 0 && ar.fired >= ar.rule.Count {
			continue
		}
		if pr := ar.rule.Prob; pr > 0 && pr < 1 && r.rng.Float64() >= pr {
			continue
		}
		ar.fired++
		r.fired[p]++
		out = &ar.rule.Injection
		break
	}
	sleep := r.sleep
	r.mu.Unlock()
	if out != nil && out.Latency > 0 && sleep != nil {
		sleep(out.Latency)
	}
	if out != nil && out.DelayOnly {
		return nil
	}
	return out
}

// active is the enabled registry; nil means every failpoint is inert.
var active atomic.Pointer[Registry]

// Enable installs r as the process-wide registry. Pair with Disable.
func Enable(r *Registry) { active.Store(r) }

// Disable removes the process-wide registry; every failpoint goes inert.
func Disable() { active.Store(nil) }

// Enabled reports whether a registry is installed.
func Enabled() bool { return active.Load() != nil }

// Hit consults the failpoint p: nil when no registry is enabled or no
// rule triggered. The disabled path is one atomic load and a nil check.
//
//loom:hotpath
func Hit(p Point) *Injection {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.hit(p)
}

// Check is the error-only form of Hit: the injected error when p
// triggered, nil otherwise.
//
//loom:hotpath
func Check(p Point) error {
	inj := Hit(p)
	if inj == nil {
		return nil
	}
	return inj.Failure()
}

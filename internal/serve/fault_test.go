package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loom/internal/fault"
	"loom/internal/graph"
	"loom/internal/stream"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// fakeTimer is an injected ReanchorPolicy.Timer: it records every armed
// delay and lets the test fire retries on demand.
type fakeTimer struct {
	mu  sync.Mutex
	ds  []time.Duration
	chs []chan time.Time
}

func (ft *fakeTimer) timer(d time.Duration) <-chan time.Time {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ch := make(chan time.Time, 1)
	ft.ds = append(ft.ds, d)
	ft.chs = append(ft.chs, ch)
	return ch
}

func (ft *fakeTimer) armed() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return len(ft.chs)
}

func (ft *fakeTimer) fire(i int) {
	ft.mu.Lock()
	ch := ft.chs[i]
	ft.mu.Unlock()
	ch <- time.Time{}
}

func (ft *fakeTimer) delays() []time.Duration {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return append([]time.Duration(nil), ft.ds...)
}

// TestInjectedWedgeAndTypedErrors replaces the hand-forced wedge flag
// with the real failure: an injected WAL append error. The failing batch
// reports the I/O error (it was applied, not acknowledged durable);
// later batches and drains are refused with ErrWedged; reads keep
// working; Checkpoint repairs; recovery serves every applied element.
func TestInjectedWedgeAndTypedErrors(t *testing.T) {
	g, w, alphabet := testGraph(t, 300, 2, 23)
	elems := elementsOf(t, g)
	dir := t.TempDir()
	s, err := Open(persistConfig(w, alphabet, g.NumVertices(), 2), PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	half := len(elems) / 2
	feedBatches(t, elems[:half], 97, s)

	fault.Enable(fault.NewRegistry(1).FailOnce(fault.WALAppend, fault.ErrNoSpace))
	defer fault.Disable()
	err = s.IngestSync(elems[half : half+10])
	if !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("batch under injected append failure = %v, want ErrNoSpace", err)
	}
	if errors.Is(err, ErrWedged) {
		t.Fatal("the failing batch itself must report the I/O error, not a wedge refusal")
	}
	if err := s.IngestSync(elems[half+10 : half+20]); !errors.Is(err, ErrWedged) {
		t.Fatalf("batch after wedge = %v, want ErrWedged", err)
	}
	if err := s.Drain(); !errors.Is(err, ErrWedged) {
		t.Fatalf("drain after wedge = %v, want ErrWedged", err)
	}
	st := s.Stats()
	if st.Persist == nil || !st.Persist.Wedged || st.Persist.State != "wedged" {
		t.Fatalf("persist state = %+v, want wedged", st.Persist)
	}
	// Reads are served throughout: the published snapshot is intact.
	if st.Ingested == 0 || st.Vertices == 0 {
		t.Fatalf("stats stopped serving under the wedge: %+v", st)
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatalf("repairing checkpoint: %v", err)
	}
	verify(t, s)
	if got := s.Stats().Persist; got.Wedged || got.State != "healthy" {
		t.Fatalf("persist state after repair = %+v, want healthy", got)
	}
	// The wedge-refused batch was never applied (that is the point of the
	// refusal): the client retries it, then the rest of the stream.
	feedBatches(t, elems[half+10:], 97, s)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
	s.Abort()

	fault.Disable()
	re, err := Open(persistConfig(w, alphabet, g.NumVertices(), 2), PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover after wedge repair: %v", err)
	}
	defer re.Stop()
	// The failed batch and the refused batch (elems[half:half+20]) were
	// applied (first) and refused (second): the repair snapshot captured
	// the applied ones, so recovery must place every vertex except the
	// refused slice's new ones. Simplest robust check: everything the
	// crashed server served, the recovered one serves identically.
	for _, vtx := range g.Vertices() {
		wp, wok := s.Where(vtx)
		gp, gok := re.Where(vtx)
		if wp != gp || wok != gok {
			t.Fatalf("Where(%d) = %v,%v, want %v,%v", vtx, gp, gok, wp, wok)
		}
	}
}

// TestSelfHealingReanchor: with ReanchorPolicy enabled a wedged server
// repairs itself — wedged -> re-anchoring -> healthy — and resumes
// ingest without an operator Checkpoint. Reads work the whole time.
func TestSelfHealingReanchor(t *testing.T) {
	g, w, alphabet := testGraph(t, 300, 2, 29)
	elems := elementsOf(t, g)
	ft := &fakeTimer{}
	cfg := persistConfig(w, alphabet, g.NumVertices(), 2)
	cfg.Reanchor = ReanchorPolicy{Enabled: true, Initial: time.Millisecond, Max: 8 * time.Millisecond, Timer: ft.timer}
	dir := t.TempDir()
	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	half := len(elems) / 2
	feedBatches(t, elems[:half], 97, s)

	fault.Enable(fault.NewRegistry(1).FailOnce(fault.WALAppend, fault.ErrNoSpace))
	defer fault.Disable()
	if err := s.IngestSync(elems[half : half+10]); !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("batch under injected append failure = %v", err)
	}
	st := s.Stats()
	if st.Persist.State != "re-anchoring" {
		t.Fatalf("state = %q, want re-anchoring", st.Persist.State)
	}
	if st.Persist.NextRetryMS != 1 {
		t.Fatalf("NextRetryMS = %d, want 1", st.Persist.NextRetryMS)
	}
	if ft.armed() != 1 {
		t.Fatalf("retry timers armed = %d, want 1", ft.armed())
	}
	// Reads are served while wedged.
	if _, ok := s.Where(g.Vertices()[0]); !ok {
		t.Fatal("reads stopped while re-anchoring")
	}

	fault.Disable()
	ft.fire(0)
	waitUntil(t, "self-heal", func() bool { return !s.Stats().Persist.Wedged })
	st = s.Stats()
	if st.Persist.State != "healthy" || st.Persist.Reanchors != 1 || st.Persist.ReanchorAttempts != 1 {
		t.Fatalf("post-heal persist = %+v", st.Persist)
	}
	// Ingest resumed without operator action.
	feedBatches(t, elems[half+10:], 97, s)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
}

// TestSelfHealingBackoffDoublesAndCaps: failed re-anchor attempts double
// the retry delay up to the cap, and the first success resets the cycle.
func TestSelfHealingBackoffDoublesAndCaps(t *testing.T) {
	g, w, alphabet := testGraph(t, 300, 2, 31)
	elems := elementsOf(t, g)
	ft := &fakeTimer{}
	cfg := persistConfig(w, alphabet, g.NumVertices(), 2)
	cfg.Reanchor = ReanchorPolicy{Enabled: true, Initial: time.Millisecond, Max: 2 * time.Millisecond, Timer: ft.timer}
	s, err := Open(cfg, PersistOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	feedBatches(t, elems[:len(elems)/2], 97, s)

	// One append failure wedges; the next two re-anchor snapshots fail
	// too (ENOSPC persists for a while), the third lands.
	fault.Enable(fault.NewRegistry(1).
		FailOnce(fault.WALAppend, fault.ErrNoSpace).
		FailN(fault.SnapWrite, fault.ErrNoSpace, 2))
	defer fault.Disable()
	if err := s.IngestSync(elems[len(elems)/2 : len(elems)/2+10]); err == nil {
		t.Fatal("append failure not surfaced")
	}
	verify(t, s)
	for i := 0; i < 3; i++ {
		waitUntil(t, "retry armed", func() bool { return ft.armed() == i+1 })
		ft.fire(i)
	}
	waitUntil(t, "self-heal", func() bool { return !s.Stats().Persist.Wedged })
	st := s.Stats()
	if st.Persist.ReanchorAttempts != 3 || st.Persist.Reanchors != 1 {
		t.Fatalf("attempts/healed = %d/%d, want 3/1", st.Persist.ReanchorAttempts, st.Persist.Reanchors)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond}
	got := ft.delays()
	if len(got) != len(want) {
		t.Fatalf("delays = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delay %d = %v, want %v (capped doubling)", i, got[i], want[i])
		}
	}
}

// TestSwapFailpointWedges: a restream swap whose durability anchor fails
// wedges the server (the swap itself stays adopted and served).
func TestSwapFailpointWedges(t *testing.T) {
	g, w, alphabet := testGraph(t, 300, 2, 37)
	s, err := Open(persistConfig(w, alphabet, g.NumVertices(), 2), PersistOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	feedBatches(t, elementsOf(t, g), 97, s)

	fault.Enable(fault.NewRegistry(1).FailOnce(fault.ServeSwap, fault.ErrNoSpace))
	defer fault.Disable()
	if err := s.Restream(); err != nil {
		t.Fatalf("restream: %v", err)
	}
	verify(t, s)
	st := s.Stats()
	if st.Restreams != 1 {
		t.Fatalf("restreams = %d, want the swap adopted", st.Restreams)
	}
	if st.Persist == nil || !st.Persist.Wedged {
		t.Fatal("failed swap anchor did not wedge")
	}
	fault.Disable()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
	if s.Stats().Persist.Wedged {
		t.Fatal("wedge survived the repairing checkpoint")
	}
}

// TestBarrierFailpointRefusesCheckpoint: the barrier failpoint fails the
// checkpoint request before it drains or reseeds anything.
func TestBarrierFailpointRefusesCheckpoint(t *testing.T) {
	g, w, alphabet := testGraph(t, 300, 2, 41)
	s, err := Open(persistConfig(w, alphabet, g.NumVertices(), 2), PersistOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	feedBatches(t, elementsOf(t, g), 97, s)
	before := s.Stats()

	fault.Enable(fault.NewRegistry(1).FailOnce(fault.ServeBarrier, nil))
	defer fault.Disable()
	if err := s.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint under barrier fault = %v, want ErrInjected", err)
	}
	after := s.Stats()
	if after.PendingWindow != before.PendingWindow || after.Persist.Snapshots != before.Persist.Snapshots {
		t.Fatal("refused checkpoint still drained or wrote")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after fault drained: %v", err)
	}
	verify(t, s)
}

// TestAcceptFailpointRefusesBeforeState: the accept failpoint refuses a
// batch on the caller's goroutine, before it touches any server state.
func TestAcceptFailpointRefusesBeforeState(t *testing.T) {
	s, err := New(persistConfig(nil, nil, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	fault.Enable(fault.NewRegistry(1).FailOnce(fault.ServeAccept, nil))
	defer fault.Disable()
	batch := []stream.Element{{Kind: stream.VertexElement, V: 1, Label: "a"}}
	if err := s.IngestSync(batch); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("ingest under accept fault = %v, want ErrInjected", err)
	}
	if st := s.Stats(); st.Ingested != 0 || st.Rejected != 0 {
		t.Fatalf("refused batch leaked into counters: %+v", st)
	}
	if err := s.IngestSync(batch); err != nil {
		t.Fatalf("ingest after fault drained: %v", err)
	}
	verify(t, s)
}

// TestAdmissionControl drives the token bucket on an injected clock:
// bursts within the bucket pass, excess is refused with a typed,
// errors.Is-able overload error carrying a retry delay, and refills
// re-admit.
func TestAdmissionControl(t *testing.T) {
	var clock atomic.Int64 // nanoseconds
	cfg := persistConfig(nil, nil, 64, 2)
	cfg.Admission = AdmissionConfig{
		Rate:  100, // elements/second
		Burst: 10,
		Now:   func() time.Duration { return time.Duration(clock.Load()) },
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	batch := make([]stream.Element, 10)
	for i := range batch {
		batch[i] = stream.Element{Kind: stream.VertexElement, V: graph.VertexID(i), Label: "a"}
	}
	if err := s.IngestSync(batch); err != nil {
		t.Fatalf("burst within bucket refused: %v", err)
	}
	verify(t, s)
	one := []stream.Element{{Kind: stream.VertexElement, V: 100, Label: "a"}}
	err = s.IngestSync(one)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget ingest = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("overload error carries no retry delay: %v", err)
	}
	if st := s.Stats(); st.Admission == nil || st.Admission.Refused != 1 {
		t.Fatalf("admission stats = %+v, want 1 refused", st.Admission)
	}

	// Honour Retry-After on the injected clock: the element now fits.
	clock.Add(int64(oe.RetryAfter) + int64(time.Millisecond))
	if err := s.IngestSync(one); err != nil {
		t.Fatalf("ingest after refill refused: %v", err)
	}
	verify(t, s)
}

// TestHealthEndToEnd covers the three health states reachable without a
// crash: healthy/ready, wedged/not-ready (reads still served), stopped.
func TestHealthEndToEnd(t *testing.T) {
	g, w, alphabet := testGraph(t, 300, 2, 43)
	s, err := Open(persistConfig(w, alphabet, g.NumVertices(), 2), PersistOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, elementsOf(t, g), 97, s)
	h := s.Health()
	if !h.Ready || h.State != "healthy" || h.MailboxCap == 0 {
		t.Fatalf("healthy server health = %+v", h)
	}

	// Force the wedge with a real injected append failure on a fresh
	// element.
	fault.Enable(fault.NewRegistry(1).FailOnce(fault.WALAppend, fault.ErrNoSpace))
	defer fault.Disable()
	_ = s.IngestSync([]stream.Element{{Kind: stream.VertexElement, V: 1 << 40, Label: "a"}})
	h = s.Health()
	if h.Ready || h.State != "wedged" {
		t.Fatalf("wedged server health = %+v", h)
	}
	if len(h.Reasons) == 0 || h.LastPersistErr == "" {
		t.Fatalf("wedged health carries no diagnosis: %+v", h)
	}
	// Reads still served.
	if _, ok := s.Where(g.Vertices()[0]); !ok {
		t.Fatal("reads stopped while wedged")
	}

	s.Stop()
	if h = s.Health(); h.Ready || h.State != "stopped" {
		t.Fatalf("stopped server health = %+v", h)
	}
}

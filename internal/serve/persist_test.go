package serve

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"loom/internal/checkpoint"
	"loom/internal/core"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/query"
	"loom/internal/stream"
)

// persistConfig is a deterministic serving config (drift disabled, fixed
// seed, explicit alphabet) shared by the durability tests.
func persistConfig(w *query.Workload, alphabet []graph.Label, n, k int) Config {
	return Config{
		Core: core.Config{
			Partition:  partition.Config{K: k, ExpectedVertices: n, Slack: 1.2, Seed: 1},
			WindowSize: 64,
			Threshold:  0.05,
		},
		Workload: w,
		Alphabet: alphabet,
	}
}

// feedBatches sends elems to every server in batches of size bs.
func feedBatches(t testing.TB, elems []stream.Element, bs int, servers ...*Server) {
	t.Helper()
	for i := 0; i < len(elems); i += bs {
		end := i + bs
		if end > len(elems) {
			end = len(elems)
		}
		for _, s := range servers {
			if err := s.IngestSync(elems[i:end]); err != nil {
				t.Fatalf("ingest batch at %d: %v", i, err)
			}
			verify(t, s)
		}
	}
}

// verify fails the test unless each server's incremental core state
// (drift counters, placement table, pending list, decay stamps) equals a
// from-scratch recomputation. The test drivers call it after every
// operation. A stopped server's loop has exited, so its core is read
// directly.
func verify(t testing.TB, servers ...*Server) {
	t.Helper()
	for _, s := range servers {
		err := s.Verify()
		if errors.Is(err, ErrStopped) {
			<-s.done
			err = s.st.Verify()
		}
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
	}
}

// normalizeStats blanks the fields that legitimately differ between a
// recovered server and a control (live mailbox depth, persistence info,
// the last restream's report).
func normalizeStats(st Stats) Stats {
	st.MailboxDepth = 0
	st.Persist = nil
	st.LastRestream = nil // not persisted, and it carries a wall-clock duration
	return st
}

// assertSameServing fails unless a and b answer identically: every
// vertex placement and the full frozen statistics.
func assertSameServing(t testing.TB, g *graph.Graph, a, b *Server) {
	t.Helper()
	verify(t, a, b)
	sa, sb := normalizeStats(a.Stats()), normalizeStats(b.Stats())
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("stats diverge:\n got %+v\nwant %+v", sa, sb)
	}
	for _, v := range g.Vertices() {
		pa, oka := a.Where(v)
		pb, okb := b.Where(v)
		if pa != pb || oka != okb {
			t.Fatalf("Where(%d) = %v,%v vs %v,%v", v, pa, oka, pb, okb)
		}
	}
}

// TestCrashRecoveryMatchesControl is the package-level crash drill: a
// durable server is hard-stopped mid-stream with no graceful checkpoint,
// reopened from its data directory (pure WAL replay), fed the rest of the
// stream, and must end bit-identical to a control server that never went
// down — including a drain barrier in the middle of the replayed history.
func TestCrashRecoveryMatchesControl(t *testing.T) {
	g, w, alphabet := testGraph(t, 600, 4, 7)
	elems := elementsOf(t, g)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 4)
	dir := t.TempDir()

	control, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Stop()
	durable, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	half := len(elems) / 2
	feedBatches(t, elems[:half], 97, control, durable)
	if err := control.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, control)
	if err := durable.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, durable)

	// Crash. No Stop, no checkpoint: everything durable lives in the WAL.
	durable.Abort()
	if err := durable.Ingest(nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("ingest after abort = %v, want ErrStopped", err)
	}

	restarted, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer restarted.Stop()
	ri := restarted.Stats().Persist.Recover
	if ri.SnapshotLoaded {
		t.Fatalf("no snapshot was ever written, but recovery loaded one: %+v", ri)
	}
	if ri.ReplayedElements != half {
		t.Fatalf("replayed %d elements, want %d", ri.ReplayedElements, half)
	}
	assertSameServing(t, g, restarted, control)

	// The recovered server keeps serving: stream the second half into
	// both and the histories stay identical.
	feedBatches(t, elems[half:], 97, control, restarted)
	if err := control.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, control)
	if err := restarted.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, restarted)
	assertSameServing(t, g, restarted, control)
}

// TestCheckpointRestoreReplaysOnlyTail proves the acceptance criterion
// that recovery after a checkpoint replays the WAL tail, not the full
// stream, and still reproduces the exact pre-crash state.
func TestCheckpointRestoreReplaysOnlyTail(t *testing.T) {
	g, w, alphabet := testGraph(t, 600, 4, 9)
	elems := elementsOf(t, g)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 4)
	dir := t.TempDir()

	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	half := len(elems) / 2
	feedBatches(t, elems[:half], 97, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	verify(t, s)
	// Three more batches after the snapshot form the tail.
	const tailBatches = 3
	const bs = 50
	feedBatches(t, elems[half:half+tailBatches*bs], bs, s)
	want := s.Stats()
	wantWhere := make(map[graph.VertexID]partition.ID)
	for _, v := range g.Vertices() {
		if p, ok := s.Where(v); ok {
			wantWhere[v] = p
		}
	}
	s.Abort()

	re, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Stop()
	ri := re.Stats().Persist.Recover
	if !ri.SnapshotLoaded {
		t.Fatal("recovery did not load the checkpoint snapshot")
	}
	if ri.ReplayedRecords != tailBatches {
		t.Fatalf("replayed %d records, want only the %d-batch tail", ri.ReplayedRecords, tailBatches)
	}
	got := re.Stats()
	if gn, wn := normalizeStats(got), normalizeStats(want); !reflect.DeepEqual(gn, wn) {
		t.Fatalf("stats diverge:\n got %+v\nwant %+v", gn, wn)
	}
	for v, p := range wantWhere {
		if gp, ok := re.Where(v); !ok || gp != p {
			t.Fatalf("Where(%d) = %v,%v, want %v", v, gp, ok, p)
		}
	}
	for _, v := range g.Vertices() {
		if _, had := wantWhere[v]; !had {
			if _, ok := re.Where(v); ok {
				t.Fatalf("vertex %d gained a placement across recovery", v)
			}
		}
	}
}

// TestCheckpointEquivalentToUninterruptedRun pins snapshot+WAL restore
// against a full-stream control run with the same logical history (both
// checkpoint at the same stream position): final assignments must be
// bit-identical under the fixed seed.
func TestCheckpointEquivalentToUninterruptedRun(t *testing.T) {
	g, w, alphabet := testGraph(t, 600, 4, 13)
	elems := elementsOf(t, g)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 4)

	crashDir, controlDir := t.TempDir(), t.TempDir()
	crashed, err := Open(cfg, PersistOptions{Dir: crashDir})
	if err != nil {
		t.Fatal(err)
	}
	control, err := Open(cfg, PersistOptions{Dir: controlDir})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Stop()

	third := len(elems) / 3
	feedBatches(t, elems[:third], 97, crashed, control)
	if err := crashed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	verify(t, crashed)
	if err := control.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	verify(t, control)
	feedBatches(t, elems[third:2*third], 97, crashed, control)
	crashed.Abort()

	restarted, err := Open(cfg, PersistOptions{Dir: crashDir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer restarted.Stop()
	assertSameServing(t, g, restarted, control)

	// Continue past the crash point: the restored engine must keep making
	// the same placement decisions as the uninterrupted control.
	feedBatches(t, elems[2*third:], 97, restarted, control)
	if err := restarted.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, restarted)
	if err := control.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, control)
	assertSameServing(t, g, restarted, control)
}

// TestGracefulStopWarmRestart: a clean Stop writes a final snapshot, so
// reopening replays nothing and serves the same placements.
func TestGracefulStopWarmRestart(t *testing.T) {
	g, w, alphabet := testGraph(t, 400, 2, 5)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 2)
	dir := t.TempDir()

	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, elementsOf(t, g), 97, s)
	s.Stop()
	want := make(map[graph.VertexID]partition.ID)
	for _, v := range g.Vertices() {
		p, ok := s.Where(v)
		if !ok {
			t.Fatalf("vertex %d unassigned after Stop", v)
		}
		want[v] = p
	}

	re, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Stop()
	ri := re.Stats().Persist.Recover
	if !ri.SnapshotLoaded || ri.ReplayedRecords != 0 {
		t.Fatalf("warm restart should replay nothing: %+v", ri)
	}
	for v, p := range want {
		if gp, ok := re.Where(v); !ok || gp != p {
			t.Fatalf("Where(%d) = %v,%v, want %v", v, gp, ok, p)
		}
	}
	if st := re.Stats(); st.Vertices != g.NumVertices() || st.Assigned != g.NumVertices() {
		t.Fatalf("stats after warm restart: %+v", st)
	}
}

// TestStopAdoptsInflightRestream is the regression test for the shutdown
// race: Stop used to abandon a restream still in flight, discarding the
// recomputed assignment and drift-estimator state that the swap would
// have installed. Stop must now quiesce, wait for the outcome, and adopt
// it deterministically.
func TestStopAdoptsInflightRestream(t *testing.T) {
	g, w, alphabet := testGraph(t, 800, 4, 11)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 4)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.IngestSync(elementsOf(t, g)); err != nil {
		t.Fatal(err)
	}
	verify(t, s)

	restreamErr := make(chan error, 1)
	go func() { restreamErr <- s.Restream() }()
	deadline := time.Now().Add(30 * time.Second)
	for !s.Stats().RestreamLive {
		if time.Now().After(deadline) {
			t.Fatal("restream never launched")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.Stop()

	if err := <-restreamErr; err != nil {
		t.Fatalf("in-flight restream was not adopted: %v", err)
	}
	st := s.Stats()
	if st.Restreams != 1 || st.RestreamLive {
		t.Fatalf("restreams=%d live=%v after Stop, want exactly one adopted", st.Restreams, st.RestreamLive)
	}
	if st.LastRestream == nil || st.LastRestream.Err != "" {
		t.Fatalf("last restream = %+v", st.LastRestream)
	}
	// The adopted state is consistent: the published cut matches a
	// recount over the final placements.
	if cut := partitionCut(t, s, g); cut != st.CutEdges {
		t.Fatalf("cut %d != recount %d", st.CutEdges, cut)
	}
	if st.Assigned != g.NumVertices() {
		t.Fatalf("assigned = %d, want %d", st.Assigned, g.NumVertices())
	}
}

// TestRestreamSwapWritesSnapshot: a drift/manual restream swap checkpoints
// implicitly, so recovery after a later crash starts from the swapped
// assignment instead of replaying from zero.
func TestRestreamSwapWritesSnapshot(t *testing.T) {
	g, w, alphabet := testGraph(t, 400, 2, 3)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 2)
	dir := t.TempDir()
	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, elementsOf(t, g), 97, s)
	if err := s.Restream(); err != nil {
		t.Fatalf("restream: %v", err)
	}
	verify(t, s)
	if n := s.Stats().Persist.Snapshots; n != 1 {
		t.Fatalf("snapshots written = %d, want 1 (at the swap)", n)
	}
	want := s.Stats()
	s.Abort()

	re, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Stop()
	ri := re.Stats().Persist.Recover
	if !ri.SnapshotLoaded || ri.ReplayedRecords != 0 {
		t.Fatalf("recovery after swap: %+v, want snapshot with empty tail", ri)
	}
	got := re.Stats()
	if got.Restreams != want.Restreams || got.CutEdges != want.CutEdges || got.Assigned != want.Assigned {
		t.Fatalf("recovered stats %+v, want %+v", got, want)
	}
	for _, v := range g.Vertices() {
		wp, _ := s.Where(v)
		if gp, ok := re.Where(v); !ok || gp != wp {
			t.Fatalf("Where(%d) = %v,%v, want %v", v, gp, ok, wp)
		}
	}
}

// TestConcurrentCheckpointsAllReturn: multiple Checkpoint callers whose
// envelopes land in the same writer cycle must all be released (the
// writer keeps a list of waiters, not a single slot).
func TestConcurrentCheckpointsAllReturn(t *testing.T) {
	g, w, alphabet := testGraph(t, 300, 2, 3)
	s, err := Open(persistConfig(w, alphabet, g.NumVertices(), 2), PersistOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	feedBatches(t, elementsOf(t, g), 97, s)

	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() { errs <- s.Checkpoint() }()
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
		case <-deadline:
			t.Fatalf("only %d of %d Checkpoint callers returned", i, callers)
		}
	}
}

// TestCheckpointUnderConcurrentIngest: a checkpoint racing a writer full
// of queued batches must not fail with window-resident vertices (the
// burst is cut at the barrier) and the recovered state must stay whole.
func TestCheckpointUnderConcurrentIngest(t *testing.T) {
	g, w, alphabet := testGraph(t, 600, 4, 17)
	elems := elementsOf(t, g)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 4)
	cfg.Mailbox = 4
	dir := t.TempDir()
	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < len(elems); i += 53 {
			end := i + 53
			if end > len(elems) {
				end = len(elems)
			}
			if err := s.Ingest(append([]stream.Element(nil), elems[i:end]...)); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	checkpoints := 0
	for i := 0; i < 5; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d during ingest: %v", i, err)
		}
		verify(t, s)
		checkpoints++
	}
	<-done
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
	want := s.Stats()
	if int(want.Persist.Snapshots) < checkpoints {
		t.Fatalf("snapshots = %d, want >= %d", want.Persist.Snapshots, checkpoints)
	}
	s.Abort()

	re, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Stop()
	got := re.Stats()
	if got.Vertices != want.Vertices || got.Assigned != want.Assigned || got.CutEdges != want.CutEdges {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	for _, v := range g.Vertices() {
		wp, wok := s.Where(v)
		gp, gok := re.Where(v)
		if wp != gp || wok != gok {
			t.Fatalf("Where(%d) = %v,%v, want %v,%v", v, gp, gok, wp, wok)
		}
	}
}

// TestBarrierRecordReplay: a checkpoint whose snapshot never landed
// leaves a barrier record in the WAL; replay must reproduce the drain AND
// the engine reseed, matching a server whose checkpoint succeeded (the
// snapshot only affects durability, never placement).
func TestBarrierRecordReplay(t *testing.T) {
	g, w, alphabet := testGraph(t, 400, 2, 19)
	elems := elementsOf(t, g)
	cfg := persistConfig(w, alphabet, g.NumVertices(), 2)
	half := len(elems) / 2

	// Control: durable server, successful checkpoint at the midpoint.
	control, err := Open(cfg, PersistOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Stop()
	feedBatches(t, elems[:half], 97, control)
	if err := control.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	verify(t, control)
	feedBatches(t, elems[half:], 97, control)
	if err := control.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, control)

	// Hand-build the WAL a failed-snapshot checkpoint leaves behind: the
	// same batches with a bare barrier record in the middle, no snapshot.
	dir := t.TempDir()
	st, _, err := checkpoint.Open(dir, checkpoint.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	writeBatches := func(part []stream.Element) {
		for i := 0; i < len(part); i += 97 {
			end := i + 97
			if end > len(part) {
				end = len(part)
			}
			if _, err := st.Append(checkpoint.RecordBatch, part[i:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeBatches(elems[:half])
	if _, err := st.Append(checkpoint.RecordBarrier, nil); err != nil {
		t.Fatal(err)
	}
	writeBatches(elems[half:])
	if _, err := st.Append(checkpoint.RecordDrain, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer re.Stop()
	assertSameServing(t, g, re, control)
}

// TestWedgeStateMachine drives the failure-hardening path end to end by
// forcing the wedge flag a failed WAL append would set: ingest and drain
// are refused (nothing is acknowledged that the log missed), a successful
// Checkpoint re-anchors the history and clears the wedge, and the
// repaired directory recovers cleanly.
func TestWedgeStateMachine(t *testing.T) {
	g, w, alphabet := testGraph(t, 300, 2, 23)
	elems := elementsOf(t, g)
	dir := t.TempDir()
	s, err := Open(persistConfig(w, alphabet, g.NumVertices(), 2), PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	half := len(elems) / 2
	feedBatches(t, elems[:half], 97, s)

	s.persist.wedged.Store(true)
	if err := s.IngestSync(elems[half : half+10]); err == nil {
		t.Fatal("wedged server accepted a batch")
	}
	verify(t, s)
	if err := s.Drain(); err == nil {
		t.Fatal("wedged server accepted a drain")
	}
	verify(t, s)
	st := s.Stats()
	if st.Persist == nil || !st.Persist.Wedged {
		t.Fatalf("Stats does not report the wedge: %+v", st.Persist)
	}
	if st.Rejected != 10 {
		t.Fatalf("rejected = %d, want the 10 refused elements", st.Rejected)
	}

	// Checkpoint captures the full in-memory state and rotates the WAL
	// past the (simulated) gap: the wedge clears and ingest resumes.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("repairing checkpoint: %v", err)
	}
	verify(t, s)
	if s.Stats().Persist.Wedged {
		t.Fatal("wedge survived a successful checkpoint")
	}
	feedBatches(t, elems[half:], 97, s)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
	want := s.Stats()
	s.Abort()

	re, err := Open(persistConfig(w, alphabet, g.NumVertices(), 2), PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover after wedge repair: %v", err)
	}
	defer re.Stop()
	got := re.Stats()
	if got.Assigned != want.Assigned || got.CutEdges != want.CutEdges || got.Vertices != want.Vertices {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	for _, vtx := range g.Vertices() {
		wp, wok := s.Where(vtx)
		gp, gok := re.Where(vtx)
		if wp != gp || wok != gok {
			t.Fatalf("Where(%d) = %v,%v, want %v,%v", vtx, gp, gok, wp, wok)
		}
	}
}

func TestCheckpointWithoutPersistence(t *testing.T) {
	s, err := New(Config{
		Core: core.Config{Partition: partition.Config{K: 2, ExpectedVertices: 8}, WindowSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := s.Checkpoint(); !errors.Is(err, ErrNoPersistence) {
		t.Fatalf("Checkpoint on non-durable server = %v, want ErrNoPersistence", err)
	}
}

func TestOpenRefusesKMismatch(t *testing.T) {
	g, w, alphabet := testGraph(t, 200, 2, 3)
	dir := t.TempDir()
	cfg := persistConfig(w, alphabet, g.NumVertices(), 2)
	s, err := Open(cfg, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, elementsOf(t, g), 97, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	verify(t, s)
	s.Stop()

	bad := persistConfig(w, alphabet, g.NumVertices(), 4)
	if _, err := Open(bad, PersistOptions{Dir: dir}); err == nil {
		t.Fatal("Open with mismatching k succeeded")
	}
}

func TestCodecUnsafeLabelsRejected(t *testing.T) {
	s, err := New(Config{
		Core: core.Config{Partition: partition.Config{K: 2, ExpectedVertices: 8}, WindowSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	bad := []stream.Element{
		{Kind: stream.VertexElement, V: 1, Label: ""},
		{Kind: stream.VertexElement, V: 2, Label: "a b"},
		{Kind: stream.VertexElement, V: 3, Label: "a\nb"},
		{Kind: stream.VertexElement, V: 4, Label: "fine"},
	}
	if err := s.IngestSync(bad); err == nil {
		t.Fatal("expected element errors for codec-unsafe labels")
	}
	verify(t, s)
	st := s.Stats()
	if st.Rejected != 3 || st.Vertices != 1 {
		t.Fatalf("rejected=%d vertices=%d, want 3/1", st.Rejected, st.Vertices)
	}
}

package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"
)

const (
	setupRuns   = 3 // set-up is repeated and its median reported
	recoverRuns = 3
	maxNotes    = 10
)

// clock is the benchmark's only access to the wall clock. It is built in
// main and passed down, so the package would pass loom-lint's wallclock
// check with main as its one allowlisted site.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

func (c clock) since(t time.Time) time.Duration { return c.now().Sub(t) }

// bench is what every run of one invocation shares.
type bench struct {
	clk      clock
	serveBin string
	hotmix   string // a copy of testdata/hotmix.txt in scratch
	scratch  string // data directories, inside the checkout
	seed     int64

	mu   sync.Mutex
	live *child // the running child, for abort
}

// setLive records the child an interrupt has to kill.
func (b *bench) setLive(c *child) {
	b.mu.Lock()
	b.live = c
	b.mu.Unlock()
}

// abort ends an interrupted invocation: no child and no file stays
// behind. It keeps the lock, so no new child is recorded after it.
func (b *bench) abort() {
	b.mu.Lock()
	if b.live != nil {
		b.live.kill()
	}
	os.RemoveAll(b.scratch)
}

// tally counts what was attempted and what failed: requests that were
// refused or lost, and answers that were wrong.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < maxNotes {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.notes = append(t.notes, o.notes...)
	t.notes = t.notes[:min(len(t.notes), maxNotes)]
}

// pass is one closed-loop run of a pool of query specs against a quiesced
// server.
type pass struct {
	wall    time.Duration
	queries int
	answers []queryAnswer // one per spec of the pool
}

// msgsPerRead is the share of the vertex reads of passes' queries that
// crossed a shard boundary, each distinct query counted once.
func msgsPerRead(passes ...pass) float64 {
	msgs, reads := 0, 0
	for _, p := range passes {
		for _, a := range p.answers {
			msgs, reads = msgs+a.Messages, reads+a.LocalReads+a.RemoteReads
		}
	}
	return float64(msgs) / float64(reads)
}

// sample is one open-loop request, timed from when it was due.
type sample struct {
	class class
	due   time.Duration // from the start of the loop
	late  time.Duration // how long after that it was sent
	lat   time.Duration // due time to complete answer
}

// observed is what one lifecycle measured, before it is folded into
// metrics.
type observed struct {
	setup      []time.Duration
	ingested   int64
	ingestWall time.Duration
	acks       []time.Duration
	afterMain  statsAnswer
	// placesAfterMain are the sampled placements right after the timed
	// ingest, which the traced run compares with its in-process control.
	placesAfterMain []placeAnswer
	recover         []time.Duration
	passA, cyclesA  pass
	passB, cyclesB  pass
	open            []sample
	// The background restream was due at restreamDue and ran from
	// restreamFrom to restreamTo on the open loop's timeline.
	restreamDue  time.Duration
	restreamFrom time.Duration
	restreamTo   time.Duration
	refresh      []time.Duration
	restream     time.Duration
	rssMiB       float64 // highest VmHWM of the run's children
	tally
}

// session is one lifecycle in progress.
type session struct {
	b       *bench
	w       workload
	mode    runMode
	in      *inputs
	dataDir string
	args    []string
	c       *child
	conns   [2]*conn
	o       *observed
}

type phase struct {
	name string
	run  func() error
}

// lifecycle drives one loom-serve child through the run and prints how
// long each phase took.
func (b *bench) lifecycle(out io.Writer, w workload, openLoop time.Duration, mode runMode) (*observed, *inputs, error) {
	s := &session{b: b, w: w, mode: mode, o: &observed{}}
	defer s.stop()
	// Set-up: generate the inputs, start the child, wait until it is
	// ready. Repeated, because a single reading of a few tenths of a
	// second is too noisy to gate on; the last instance is the one the
	// run uses.
	runs := setupRuns
	if mode == liteRun {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		s.stop()
		t0 := b.clk.now()
		in, err := generate(w, b.seed, openLoop, mode)
		if err != nil {
			return nil, nil, err
		}
		s.in = in
		if s.dataDir, err = os.MkdirTemp(b.scratch, "data-"); err != nil {
			return nil, nil, err
		}
		s.args = serveArgs(w, in, b.hotmix, s.dataDir)
		if err := s.start(); err != nil {
			return nil, nil, err
		}
		s.o.setup = append(s.o.setup, b.clk.since(t0))
	}
	phases := []phase{{"ingest", s.ingestMain}}
	if mode == fullRun {
		phases = append(phases, phase{"recover", s.crashAndRecover})
	}
	phases = append(phases, phase{"pass-a", s.passA}, phase{"open-loop", s.openLoop})
	if mode == fullRun {
		phases = append(phases, phase{"refresh", s.refreshRounds}, phase{"restream", s.restreamAndPassB})
	}
	phases = append(phases, phase{"final", s.finalChecks})
	fmt.Fprintf(out, "# %s phases:", w.name)
	for _, p := range phases {
		t0 := b.clk.now()
		if err := p.run(); err != nil {
			fmt.Fprintln(out)
			if s.c != nil {
				err = fmt.Errorf("%w\nloom-serve stderr: %s", err, s.c.stderr.String())
			}
			return nil, nil, fmt.Errorf("%s: %s: %w", w.name, p.name, err)
		}
		fmt.Fprintf(out, " %s=%.1fs", p.name, b.clk.since(t0).Seconds())
	}
	fmt.Fprintln(out)
	return s.o, s.in, nil
}

// start executes the child on the session's data directory and connects.
func (s *session) start() error {
	c, err := startChild(s.b.clk, s.b.serveBin, s.args)
	if err != nil {
		return err
	}
	s.c = c
	s.b.setLive(c)
	for i := range s.conns {
		s.conns[i] = newConn(c.base)
	}
	return nil
}

// kill ends the child, keeping the highest memory reading of the run.
func (s *session) kill() {
	for _, c := range s.conns {
		c.close()
	}
	if rss, err := s.c.peakRSS(); err == nil {
		s.o.rssMiB = max(s.o.rssMiB, rss)
	}
	s.c.kill()
	s.b.setLive(nil)
	s.c = nil
}

// stop kills the child, if any, and removes its data directory.
func (s *session) stop() {
	if s.c != nil {
		s.kill()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
		s.dataDir = ""
	}
}

// post sends a POST on the first connection whose 200 answer the run
// cannot go on without.
func (s *session) post(path string, out any) error {
	if out == nil {
		out = &struct{}{}
	}
	return s.conns[0].getJSON("POST", path, "", nil, out)
}

// ingest sends bodies one after the other, each waiting for its ack, and
// checks every ack against what was sent.
func (s *session) ingest(bodies []body) (elems int64, acks []time.Duration) {
	for _, bd := range bodies {
		t0 := s.b.clk.now()
		var a ingestAnswer
		err := s.conns[0].getJSON("POST", "/ingest", contentType(s.w), bd.data, &a)
		acks = append(acks, s.b.clk.since(t0))
		s.o.check(err == nil && a.Accepted == bd.elems && a.Rejected == 0,
			"ingest of %d elements: accepted %d, rejected %d, error %v", bd.elems, a.Accepted, a.Rejected, err)
		elems += int64(bd.elems)
	}
	return elems, acks
}

// drained drains the window and checks /stats against the ledger.
func (s *session) drained(want ledger) (statsAnswer, error) {
	if err := s.post("/drain", nil); err != nil {
		return statsAnswer{}, err
	}
	st, err := s.conns[0].stats()
	if err != nil {
		return st, err
	}
	s.o.check(st.Ingested == want.Elements && st.Rejected == 0 && st.Vertices == want.Vertices &&
		st.Edges == want.Edges && st.Assigned == want.Vertices,
		"/stats after drain %+v, ledger %+v", st, want)
	return st, nil
}

// ingestMain is the timed ingest phase: a closed loop of one producer,
// the final drain included.
func (s *session) ingestMain() error {
	t0 := s.b.clk.now()
	s.o.ingested, s.o.acks = s.ingest(s.in.main)
	st, err := s.drained(s.in.afterMain)
	s.o.ingestWall = s.b.clk.since(t0)
	if err != nil {
		return err
	}
	s.o.afterMain = st
	s.o.check(st.Persist != nil && st.Persist.Snapshots == int64(s.w.barriers),
		"checkpoint barriers during ingest: %+v, want %d", st.Persist, s.w.barriers)
	s.o.placesAfterMain, err = s.places(s.in.aliveAfterMain)
	return err
}

// places looks up the sampled vertices and checks each answer against
// what the generator knew of them at this point of the stream.
func (s *session) places(alive []bool) ([]placeAnswer, error) {
	out := make([]placeAnswer, len(s.in.sample))
	for i, v := range s.in.sample {
		if err := s.conns[0].getJSON("GET", fmt.Sprintf("/place/%d", v), "", nil, &out[i]); err != nil {
			return nil, err
		}
		p := out[i]
		s.o.check(p.Assigned == alive[i] && (!alive[i] || p.Partition >= 0 && p.Partition < partitions),
			"/place/%d = %+v, vertex alive %v", v, p, alive[i])
	}
	return out, nil
}

// crashAndRecover takes a snapshot, leaves a WAL tail behind it, then
// three times over kills the child, starts it again on the same data
// directory and checks that it answers as it did before. It comes before
// the first query: once served queries have replaced the static workload
// at a restream, a restarted loom-serve replays its WAL tail against the
// static workload again and places the tail's vertices differently (see
// BENCHMARK.md, "Limits").
func (s *session) crashAndRecover() error {
	if err := s.post("/checkpoint", nil); err != nil {
		return err
	}
	s.ingest(s.in.tail)
	before, err := s.drained(s.in.afterTail)
	if err != nil {
		return err
	}
	placed, err := s.places(s.in.aliveAfterTail)
	if err != nil {
		return err
	}
	for i := 0; i < recoverRuns; i++ {
		t0 := s.b.clk.now()
		s.kill()
		if err := s.start(); err != nil {
			return err
		}
		s.o.recover = append(s.o.recover, s.b.clk.since(t0))
		after, err := s.conns[0].stats()
		if err != nil {
			return err
		}
		after.Persist, before.Persist = nil, nil // WAL counters restart with the process
		s.o.check(fmt.Sprint(after) == fmt.Sprint(before), "/stats after recovery %+v, before the kill %+v", after, before)
		again, err := s.places(s.in.aliveAfterTail)
		if err != nil {
			return err
		}
		s.o.check(slices.Equal(again, placed), "sampled placements changed across recovery %d", i+1)
	}
	return nil
}

// queryPass sends every spec of pool, reps times over, one query at a
// time, and checks that a spec gets the same answer every time: nothing
// is ingested meanwhile.
func (s *session) queryPass(pool []string, reps int) pass {
	p := pass{answers: make([]queryAnswer, len(pool))}
	t0 := s.b.clk.now()
	for rep := 0; rep < reps; rep++ {
		for i, spec := range pool {
			var a queryAnswer
			err := s.conns[0].getJSON("POST", "/query", "text/plain", []byte(spec), &a)
			if rep == 0 {
				p.answers[i] = a
			}
			s.o.check(err == nil && a.Matches > 0 && a == p.answers[i],
				"query %q: answer %+v, first answer %+v, error %v", spec, a, p.answers[i], err)
			p.queries++
		}
	}
	p.wall = s.b.clk.since(t0)
	return p
}

// passA builds the first serving view and runs Pass A: the path and star
// pool, timed, then the cycles once for their message counts.
func (s *session) passA() error {
	if err := s.post("/query/refresh", nil); err != nil {
		return err
	}
	s.o.passA = s.queryPass(pathStarPool, s.w.passReps)
	s.o.cyclesA = s.queryPass(cyclePool, 1)
	return nil
}

// openLoop sends both connections' timelines on schedule, whatever the
// server does, and times every request from when it was due.
func (s *session) openLoop() error {
	var wg sync.WaitGroup
	var samples [2][]sample
	var tallies [2]tally
	start := s.b.clk.now()
	for i, timeline := range s.in.schedule {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples[i], tallies[i] = s.send(s.conns[i], timeline, start)
		}()
	}
	wg.Wait()
	for i := range samples {
		s.o.open = append(s.o.open, samples[i]...)
		s.o.merge(tallies[i])
	}

	// The restream asked for half way may still be running.
	deadline := s.b.clk.now().Add(requestTimeout)
	for {
		st, err := s.conns[0].stats()
		if err != nil {
			return err
		}
		if st.Restreams >= 1 && !st.RestreamLive && st.LastRestream != nil {
			for _, sm := range s.o.open {
				if sm.class == classRestream {
					s.o.restreamDue, s.o.restreamFrom = sm.due, sm.due+sm.late
				}
			}
			s.o.restreamTo = s.o.restreamFrom + time.Duration(st.LastRestream.DurationMS)*time.Millisecond
			return nil
		}
		if s.b.clk.now().After(deadline) {
			return fmt.Errorf("background restream did not finish: %+v", st)
		}
		s.b.clk.sleep(10 * time.Millisecond)
	}
}

// send works through one connection's timeline.
func (s *session) send(c *conn, timeline []request, start time.Time) ([]sample, tally) {
	var t tally
	out := make([]sample, 0, len(timeline))
	for _, rq := range timeline {
		if wait := rq.due - s.b.clk.since(start); wait > 0 {
			s.b.clk.sleep(wait)
		}
		sm := sample{class: rq.class, due: rq.due, late: max(0, s.b.clk.since(start)-rq.due)}
		method, ctype, want := "GET", "", http.StatusOK
		switch rq.class {
		case classQueryPath, classQueryCycle:
			method, ctype = "POST", "text/plain"
		case classIngest:
			method, ctype = "POST", contentType(s.w)
		case classRestream:
			method, want = "POST", http.StatusAccepted
		}
		status, _, err := c.do(method, rq.path, ctype, rq.body)
		sm.lat = s.b.clk.since(start) - rq.due
		t.check(err == nil && status == want, "%s %s: status %d, error %v", method, rq.path, status, err)
		out = append(out, sm)
	}
	return out, t
}

// refreshRounds times the view refresh after a small delta, with ingest
// quiesced: today every refresh re-exports and re-shards the whole graph.
func (s *session) refreshRounds() error {
	for _, delta := range s.in.deltas {
		s.ingest([]body{delta})
		if err := s.post("/drain", nil); err != nil {
			return err
		}
		t0 := s.b.clk.now()
		if err := s.post("/query/refresh", nil); err != nil {
			return err
		}
		s.o.refresh = append(s.o.refresh, s.b.clk.since(t0))
	}
	return nil
}

// restreamAndPassB times one restream against the observed workload and
// repeats Pass A's queries on the placement it produced.
func (s *session) restreamAndPassB() error {
	t0 := s.b.clk.now()
	if err := s.post("/restream?wait=1", nil); err != nil {
		return err
	}
	s.o.restream = s.b.clk.since(t0)
	if err := s.post("/query/refresh", nil); err != nil {
		return err
	}
	s.o.passB = s.queryPass(pathStarPool, passBReps)
	s.o.cyclesB = s.queryPass(cyclePool, 1)
	return nil
}

// finalChecks compares the server's counters with the ledger of
// everything that was sent, and reads the child's memory high-water mark.
func (s *session) finalChecks() error {
	if _, err := s.drained(s.in.final); err != nil {
		return err
	}
	rss, err := s.c.peakRSS()
	s.o.rssMiB = max(s.o.rssMiB, rss)
	return err
}

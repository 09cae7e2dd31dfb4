package serve

import (
	"time"
)

// Defaults for ReanchorPolicy zero fields.
const (
	// DefaultReanchorInitial is the first retry delay after a wedge.
	DefaultReanchorInitial = 100 * time.Millisecond
	// DefaultReanchorMax caps the exponential backoff.
	DefaultReanchorMax = 5 * time.Second
)

// ReanchorPolicy makes a wedged server heal itself. A wedge means the
// in-memory state leads the WAL (an append or a swap snapshot failed);
// the repair is always the same — a successful re-anchoring snapshot —
// and without a policy it waits for an operator to call Checkpoint.
// With Enabled set, the server schedules that snapshot itself on a
// capped exponential backoff, serving reads throughout, and resumes
// ingest the moment a retry lands.
type ReanchorPolicy struct {
	// Enabled turns self-healing on.
	Enabled bool
	// Initial is the first retry delay (default DefaultReanchorInitial);
	// each failed retry doubles it up to Max (default DefaultReanchorMax).
	Initial time.Duration
	Max     time.Duration
	// Timer returns a channel that fires once after d; nil defaults to the
	// process clock. Tests and the chaos harness inject a fake so healing
	// is deterministic.
	Timer func(d time.Duration) <-chan time.Time
}

// defaultReanchorTimer schedules retries on the process clock.
func defaultReanchorTimer(d time.Duration) <-chan time.Time { return time.After(d) }

// scheduleReanchor arms the retry timer. Writer-owned (loop goroutine);
// callers invoke it right after setting the wedge. A pending timer is
// left alone — reanchor re-checks the wedge when it fires, so a retry
// scheduled before the wedge cleared (or before a re-wedge) stays
// harmless.
func (s *Server) scheduleReanchor() {
	r := s.cfg.Reanchor
	if !r.Enabled || s.heal.retryCh != nil || !s.persist.wedged.Load() {
		return
	}
	if s.heal.backoff <= 0 {
		s.heal.backoff = r.Initial
	}
	s.heal.retryCh = r.Timer(s.heal.backoff)
	s.heal.nextMS.Store(s.heal.backoff.Milliseconds())
}

// persistState names the durability state machine's state for Stats and
// Health.
func (s *Server) persistState(wedged bool) string {
	switch {
	case wedged && s.cfg.Reanchor.Enabled:
		return "re-anchoring"
	case wedged:
		return "wedged"
	}
	return "healthy"
}

// reanchor is one self-healing attempt: the same barrier and snapshot an
// explicit Checkpoint performs (minus the barrier WAL record a wedged log
// cannot carry). On failure the backoff doubles (capped) and the timer is
// re-armed; on success the wedge is gone and ingest resumes. Runs on the
// writer goroutine.
func (s *Server) reanchor() {
	s.heal.retryCh = nil
	s.heal.nextMS.Store(0)
	if !s.persist.wedged.Load() {
		// Something else (an explicit Checkpoint, a restream swap) already
		// re-anchored while the timer was pending.
		s.heal.backoff = 0
		return
	}
	// attempts is bumped LAST on every path: once a caller observes the
	// increment, the outcome (wedge cleared or next retry armed) is
	// already settled — the chaos harness synchronizes on exactly this.
	defer s.heal.attempts.Add(1)
	s.heal.backoff = min(s.heal.backoff*2, s.cfg.Reanchor.Max)
	if err := s.checkpoint(); err != nil {
		return // checkpoint re-armed the timer with the doubled backoff
	}
	s.heal.backoff = 0
	s.heal.healed.Add(1)
}

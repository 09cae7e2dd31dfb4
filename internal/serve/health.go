package serve

// Health is the liveness/readiness view of a Server, built for the two
// standard probes: a live server answers at all; a ready one should
// receive traffic. Reads (Where/Route/Stats) work in every state but
// "stopped" — wedged and re-anchoring only refuse ingest.
type Health struct {
	// Ready is the readiness verdict; Reasons lists what failed it.
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
	// State is "healthy", "re-anchoring" (wedged with self-healing
	// enabled), "wedged" (waiting for an operator Checkpoint), or
	// "stopped".
	State string `json:"state"`
	// MailboxDepth/MailboxCap expose ingest queue pressure; readiness
	// fails when the queue is above readyHighWater of capacity.
	MailboxDepth int `json:"mailbox_depth"`
	MailboxCap   int `json:"mailbox_cap"`
	// LastPersistErr is the sticky most-recent persistence failure.
	LastPersistErr string `json:"last_persist_err,omitempty"`
}

// readyHighWater is the mailbox fill fraction (in 1/4ths) above which
// readiness fails: 3 means "above three quarters full".
const readyHighWater = 3

// Health reports liveness and readiness. Safe for any goroutine.
func (s *Server) Health() Health {
	h := Health{
		State:        "healthy",
		MailboxDepth: len(s.mail),
		MailboxCap:   cap(s.mail),
	}
	stopped := false
	select {
	case <-s.quit:
		stopped = true
	default:
	}
	switch {
	case stopped:
		h.State = "stopped"
		h.Reasons = append(h.Reasons, "server stopped")
	case s.persist.wedged.Load():
		h.State = s.persistState(true)
		h.Reasons = append(h.Reasons, "persistence wedged: ingest refused until a snapshot re-anchors the WAL")
	}
	if 4*h.MailboxDepth > readyHighWater*h.MailboxCap {
		h.Reasons = append(h.Reasons, "ingest queue above high-water mark")
	}
	if e := s.persist.lastErr.Load(); e != nil {
		h.LastPersistErr = *e
	}
	h.Ready = len(h.Reasons) == 0
	return h
}

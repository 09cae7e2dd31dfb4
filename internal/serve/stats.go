package serve

import "loom/internal/serve/state"

// Stats is the reader-visible state of a Server: the core's statistics
// frozen per published epoch (state.Stats — counters, drift estimate,
// last restream) plus the shell's live sections.
type Stats struct {
	state.Stats
	// MailboxDepth is the number of batches queued behind the writer at the
	// moment Stats was called (live, not frozen at publication);
	// MailboxCap is the queue capacity.
	MailboxDepth int `json:"mailbox_depth"`
	MailboxCap   int `json:"mailbox_cap"`
	// Admission reports the ingest token bucket; nil when admission
	// control is off. Counters are live, not frozen at publication.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Persist reports the durability layer; nil on a server built without
	// a data directory. Counters are live (read at the Stats call), not
	// frozen at publication.
	Persist *PersistStats `json:"persist,omitempty"`
}

package serve

import (
	"errors"
	"fmt"
	"time"

	"loom/internal/checkpoint"
)

// PersistOptions configures the durability layer of Open.
type PersistOptions struct {
	// Dir is the checkpoint directory (created if missing): snapshots
	// plus WAL segments, managed by internal/checkpoint.
	Dir string
	// Fsync is the WAL sync policy. The zero value is
	// checkpoint.SyncAlways: an acknowledged batch survives power loss.
	Fsync checkpoint.SyncPolicy
}

// RecoverInfo describes what Open reconstructed. Immutable after Open.
type RecoverInfo struct {
	// SnapshotLoaded is false when the directory held no (intact)
	// snapshot and the whole history was replayed from the WAL.
	SnapshotLoaded bool   `json:"snapshot_loaded"`
	SnapshotEpoch  uint64 `json:"snapshot_epoch,omitempty"`
	// ReplayedRecords/ReplayedElements count the WAL tail fed back
	// through the ingest path — only the tail, never the full stream.
	ReplayedRecords  int `json:"replayed_records"`
	ReplayedElements int `json:"replayed_elements"`
	// SkippedSnapshots counts corrupt snapshot files passed over;
	// TornTail reports a truncated final WAL record (dropped, not fatal).
	SkippedSnapshots int  `json:"skipped_snapshots,omitempty"`
	TornTail         bool `json:"torn_tail,omitempty"`
	// RecoverMS is the wall-clock cost of Open: directory scan, snapshot
	// load and WAL tail replay.
	RecoverMS int64 `json:"recover_ms"`
}

// PersistStats is the durability section of Stats.
type PersistStats struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir"`
	Fsync   string `json:"fsync"`
	// WALRecords/WALBytes/Snapshots count what this process wrote.
	WALRecords int64 `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// WALTail counts records appended since the last successful snapshot
	// rotation (including a recovered tail) — what a crash right now
	// would replay. Config.SnapshotEveryBatches bounds it.
	WALTail   int64 `json:"wal_tail"`
	Snapshots int64 `json:"snapshots"`
	// LastErr is the most recent persistence failure, sticky until the
	// next one overwrites it.
	LastErr string `json:"last_err,omitempty"`
	// Wedged reports that a WAL append failed and ingest is refused until
	// a successful Checkpoint (or restream swap) re-anchors the log.
	Wedged bool `json:"wedged,omitempty"`
	// State is the durability state machine: "healthy", "re-anchoring"
	// (wedged, self-healing retries scheduled) or "wedged" (waiting for
	// an operator Checkpoint).
	State string `json:"state,omitempty"`
	// ReanchorAttempts/Reanchors count self-healing snapshot tries and
	// successes; NextRetryMS is the currently armed backoff delay (0 when
	// no retry is pending).
	ReanchorAttempts int64       `json:"reanchor_attempts,omitempty"`
	Reanchors        int64       `json:"reanchors,omitempty"`
	NextRetryMS      int64       `json:"next_retry_ms,omitempty"`
	Recover          RecoverInfo `json:"recover"`
}

// Open starts a durable Server over the checkpoint directory in opts: it
// loads the newest intact snapshot (if any), replays the WAL tail behind
// it through the same single-writer path live ingest uses, and then runs
// like New with every accepted batch appended to the WAL, a snapshot
// written at each restream swap, explicit Checkpoint, and graceful Stop.
// A server killed without ceremony (crash, Abort) and reopened this way
// answers Where/Route/Stats exactly like one that never went down,
// modulo batches that were never acknowledged durable under
// checkpoint.SyncNone. Stats.Epoch matches too: the live writer
// publishes once per envelope and once per checkpoint, as replay
// publishes once per WAL record.
// One cosmetic exception: Stats.Rejected only survives up to the last
// snapshot (the WAL records accepted elements, so rejections after it are
// not replayable), and so do the epochs of envelopes that left no WAL
// record (a batch rejected whole, a Flush). Every placement and every
// other counter matches exactly.
//
// Deterministic recovery has the same preconditions as background
// restreams: set Config.Alphabet so motif signatures agree across engine
// rebuilds, and keep the Config between runs identical (K in particular
// is enforced against the snapshot).
func Open(cfg Config, opts PersistOptions) (*Server, error) {
	if opts.Dir == "" {
		return nil, errors.New("serve: PersistOptions.Dir is required")
	}
	start := time.Now()
	st, rec, err := checkpoint.Open(opts.Dir, opts.Fsync)
	if err != nil {
		return nil, err
	}
	s, err := newServer(cfg)
	if err != nil {
		st.Close()
		return nil, err
	}
	info := RecoverInfo{SkippedSnapshots: rec.SkippedSnapshots, TornTail: rec.TornTail}
	if rec.HasSnapshot {
		if err := s.st.Restore(rec.Meta, rec.Graph, rec.Assignment); err != nil {
			st.Close()
			return nil, err
		}
		info.SnapshotLoaded = true
		info.SnapshotEpoch = rec.Meta.Epoch
	}
	s.publish()

	// Replay the WAL tail through the same ApplyRecord the live writer
	// commits with. The loop is not running yet, so this goroutine is the
	// writer; drift triggers stay quiet (only handle consults them) and
	// nothing is re-appended (the store is attached after the replay).
	for _, r := range rec.Tail {
		info.ReplayedRecords++
		info.ReplayedElements += len(r.Elems)
		if _, err := s.st.ApplyRecord(r.Kind, r.Elems); err != nil {
			// The log holds only once-accepted elements; a rejection
			// means log and snapshot disagree.
			st.Close()
			return nil, fmt.Errorf("serve: WAL replay (record %d): %w", r.Seq, err)
		}
		s.publish()
	}
	info.RecoverMS = time.Since(start).Milliseconds()

	s.persist.store = st
	s.persist.walTail.Store(int64(info.ReplayedRecords))
	s.persist.dir = opts.Dir
	s.persist.fsync = opts.Fsync
	s.persist.recover = info
	go s.loop()
	return s, nil
}

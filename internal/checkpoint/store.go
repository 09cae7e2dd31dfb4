package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"loom/internal/fault"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/stream"
)

// SyncPolicy says when the WAL is fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record: an acknowledged batch
	// survives power loss. The zero value, so it is also the default.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves flushing to the OS page cache: faster, but batches
	// acknowledged in the last few seconds before a crash may be lost.
	SyncNone
)

// ParseSyncPolicy maps the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("checkpoint: unknown fsync policy %q (want always|none)", s)
}

func (p SyncPolicy) String() string {
	if p == SyncNone {
		return "none"
	}
	return "always"
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".ckpt"
	segPrefix  = "wal-"
	segSuffix  = ".log"
	// keepSnapshots is how many generations survive pruning: the latest
	// plus one fallback in case the latest turns out unreadable later.
	keepSnapshots = 2
)

func snapName(seq uint64) string { return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix) }
func segName(seq uint64) string  { return fmt.Sprintf("%s%020d%s", segPrefix, seq, segSuffix) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// scanDir lists the directory's checkpoint artifacts: snapshot sequences
// newest-first (the recovery preference order) and WAL segment start
// sequences oldest-first (the replay order).
func scanDir(dir string) (snapSeqs, segSeqs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snapSeqs = append(snapSeqs, seq)
		}
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segSeqs = append(segSeqs, seq)
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] })
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	return snapSeqs, segSeqs, nil
}

// Recovered is the state Open reconstructs from a data directory.
type Recovered struct {
	// HasSnapshot reports whether a base snapshot was loaded; when false
	// the whole history lives in Tail.
	HasSnapshot bool
	Meta        Meta
	Graph       *graph.Graph
	Assignment  *partition.Assignment
	// Tail holds the WAL records not covered by the snapshot, in order.
	Tail []Record
	// SkippedSnapshots counts snapshot files that failed validation and
	// were passed over; TornTail reports whether the last WAL segment had
	// a torn final record that was truncated.
	SkippedSnapshots int
	TornTail         bool
}

// Store manages one serving checkpoint directory: the current WAL segment
// plus snapshot rotation and pruning. It is owned by the server's single
// writer goroutine and is not safe for concurrent use.
type Store struct {
	dir    string
	policy SyncPolicy
	wal    *walWriter // also owns the next-sequence counter
}

// Open scans dir (created if missing), loads the newest intact snapshot,
// collects the WAL tail behind it, and prepares the last segment for
// appending (truncating a torn final record). The returned Recovered is
// never nil.
func Open(dir string, policy SyncPolicy) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	// A crash between snapshot temp-write and rename leaves a .tmp orphan
	// that scanDir never matches; sweep them here or they accumulate.
	if stale, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix+".tmp")); err == nil {
		for _, p := range stale {
			os.Remove(p)
		}
	}
	snapSeqs, segSeqs, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	rec := &Recovered{}
	for _, seq := range snapSeqs {
		// fault.SnapReadSkip treats this generation as damaged, forcing
		// the fall-back-to-previous-generation path recovery must survive.
		if fault.Check(fault.SnapReadSkip) != nil {
			rec.SkippedSnapshots++
			continue
		}
		f, err := os.Open(filepath.Join(dir, snapName(seq)))
		if err != nil {
			rec.SkippedSnapshots++
			continue
		}
		m, g, a, rerr := ReadSnapshot(f)
		f.Close()
		if rerr != nil {
			rec.SkippedSnapshots++
			continue
		}
		rec.HasSnapshot, rec.Meta, rec.Graph, rec.Assignment = true, m, g, a
		break
	}
	minSeq := rec.Meta.NextSeq // 0 without a snapshot

	// Scan every segment in order; records below minSeq are already
	// covered by the snapshot.
	var scans []segmentScan
	var paths []string
	for i, seq := range segSeqs {
		path := filepath.Join(dir, segName(seq))
		sc, err := readSegmentFile(path)
		if err == errBadSegmentHeader && i == len(segSeqs)-1 {
			// A crash during rotation can leave a header-less final
			// segment with no records in it; recreate it below.
			if err := os.Remove(path); err != nil {
				return nil, nil, err
			}
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint: segment %s: %w", segName(seq), err)
		}
		// A torn segment mid-history is not fatal by itself: under
		// SyncNone a crash can tear a tail whose records the (always
		// fsynced) snapshot already covers. The sequence-continuity check
		// below fails loudly iff a record the snapshot does NOT cover was
		// actually lost.
		rec.TornTail = rec.TornTail || sc.torn
		scans = append(scans, sc)
		paths = append(paths, path)
	}
	next := minSeq
	for i, sc := range scans {
		for _, r := range sc.recs {
			if r.Seq < minSeq {
				continue
			}
			if r.Seq != next {
				return nil, nil, fmt.Errorf("checkpoint: WAL gap: want seq %d, segment %s holds %d", next, filepath.Base(paths[i]), r.Seq)
			}
			rec.Tail = append(rec.Tail, r)
			next++
		}
	}

	s := &Store{dir: dir, policy: policy}
	if last := len(scans) - 1; last >= 0 && scans[last].start+uint64(len(scans[last].recs)) == next {
		// The last segment ends exactly at the global next sequence:
		// append in place (truncating any torn bytes).
		w, err := openSegmentForAppend(paths[last], scans[last], policy == SyncAlways)
		if err != nil {
			return nil, nil, err
		}
		s.wal = w
	} else {
		// No segment, or the last segment's tail was torn away while the
		// snapshot had already covered those sequences — appending there
		// would leave an in-segment gap that the next recovery rejects.
		// Start a fresh segment at the global next sequence instead.
		w, err := createSegment(filepath.Join(dir, segName(next)), next, policy == SyncAlways)
		if err != nil {
			return nil, nil, err
		}
		s.wal = w
		s.syncDir()
	}
	return s, rec, nil
}

// NextSeq is the sequence number the next appended record will get.
func (s *Store) NextSeq() uint64 { return s.wal.next }

// Append writes one record to the WAL (fsync per policy) and returns its
// size on disk.
func (s *Store) Append(kind RecordKind, elems []stream.Element) (int, error) {
	return s.wal.append(kind, elems)
}

// AppendBinary writes one binary-batch record whose body is the given
// pre-encoded binary frame payload, verbatim — no re-encoding between
// the decode and the log. The caller (serve's writer, logging a frame
// IngestFrames decoded) guarantees the payload decodes cleanly with zero intra-frame
// duplicates and that every element it carries was accepted; replay
// rejects anything else as corruption.
func (s *Store) AppendBinary(payload []byte) (int, error) {
	return s.wal.appendBody(RecordBatchBinary, payload)
}

// WriteSnapshot persists one snapshot (temp file + rename), rotates the
// WAL to a fresh segment, and prunes snapshots and segments that are no
// longer needed. m.NextSeq is stamped by the store.
func (s *Store) WriteSnapshot(m Meta, g *graph.Graph, a *partition.Assignment) error {
	m.NextSeq = s.wal.next
	final := filepath.Join(s.dir, snapName(m.NextSeq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Fault sites cover the three distinct failure positions of the
	// temp+rename dance — body write, fsync, rename — each of which must
	// leave the previous generation loadable and no tmp orphan behind.
	if err := fault.Check(fault.SnapWrite); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := WriteSnapshot(f, m, g, a); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := fault.Check(fault.SnapSync); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fault.Check(fault.SnapRename); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	s.syncDir()

	// Rotate the WAL so the tail behind the new snapshot starts empty.
	// Skip when the current segment already starts at the next sequence
	// since the last rotation) — recreating it would truncate nothing —
	// unless the writer broke (failed write + failed rollback): the
	// snapshot has re-anchored history, and recreating the segment (same
	// name, O_TRUNC) discards the garbage and yields a working writer, so
	// a wedge cleared by this snapshot stays cleared.
	if s.wal.start != s.wal.next || s.wal.broken {
		w, err := createSegment(filepath.Join(s.dir, segName(m.NextSeq)), m.NextSeq, s.policy == SyncAlways)
		if err != nil {
			return err
		}
		old := s.wal
		s.wal = w
		s.syncDir()
		// Best-effort: everything in the old segment is covered by the
		// snapshot just written (or was unacknowledged garbage on a
		// broken writer), so a close failure changes nothing durable.
		_ = old.close()
	}
	s.prune()
	return nil
}

// prune removes snapshots beyond the newest keepSnapshots and WAL
// segments that no kept snapshot needs. Best-effort: pruning failures are
// ignored (they only cost disk).
func (s *Store) prune() {
	// An injected prune failure skips the pass wholesale, as a failed
	// unlink would: the extra generations cost disk, never correctness.
	if fault.Check(fault.SegPrune) != nil {
		return
	}
	snapSeqs, segSeqs, err := scanDir(s.dir)
	if err != nil {
		return
	}
	if len(snapSeqs) > keepSnapshots {
		for _, seq := range snapSeqs[keepSnapshots:] {
			os.Remove(filepath.Join(s.dir, snapName(seq)))
		}
		snapSeqs = snapSeqs[:keepSnapshots]
	}
	if len(snapSeqs) == 0 {
		return
	}
	oldestNeeded := snapSeqs[len(snapSeqs)-1]
	// Segment i covers sequences [segSeqs[i], segSeqs[i+1]); it is safe to
	// delete when the whole range predates the oldest kept snapshot.
	for i := 0; i+1 < len(segSeqs); i++ {
		if segSeqs[i+1] <= oldestNeeded {
			os.Remove(filepath.Join(s.dir, segName(segSeqs[i])))
		}
	}
}

// syncDir fsyncs the directory so renames and creations are durable.
// Best-effort: some filesystems refuse directory fsync.
func (s *Store) syncDir() {
	if s.policy != SyncAlways {
		return
	}
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Close closes the WAL segment. The store must not be used afterwards.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.close()
	s.wal = nil
	return err
}

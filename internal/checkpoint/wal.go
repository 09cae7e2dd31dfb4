package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"loom/internal/fault"
	"loom/internal/graph"
	"loom/internal/stream"
	"loom/internal/wire"
)

// The write-ahead log is a sequence of framed records appended to segment
// files. Each frame is
//
//	u32 LE payload length | u32 LE CRC32(payload) | payload
//
// (the shared wire framing — see internal/wire) and each payload is
//
//	u64 LE sequence number | u8 record kind | body
//
// where the body of a binary batch record — the only batch kind the
// server writes — is a binary ingest frame payload (see internal/stream's
// binary codec), verbatim when an accepted binary batch can be logged
// without re-encoding, and the body of a text batch record (read-only
// compatibility, see RecordBatch) is the graph-stream text codec
// ("v <id> <label>" / "e <u> <v>" lines, removals as "rv <id>" /
// "re <u> <v>") decoded by stream.FromReader. A segment file starts with
// an 8-byte magic plus the u64 LE sequence number of its first record.
//
// Recovery tolerates a torn tail: a frame whose length, checksum, body or
// sequence number does not check out ends the scan, and everything before
// it replays normally. The writer truncates the file back to the last
// intact frame before appending again.

const (
	walMagic = "loomwal1"
	// walHeaderSize is magic + start sequence number.
	walHeaderSize = len(walMagic) + 8
	// frameHeaderSize is length + CRC (the shared wire framing).
	frameHeaderSize = wire.HeaderSize
	// payloadHeaderSize is sequence number + kind.
	payloadHeaderSize = 9
	// maxPayload bounds a single record so a corrupt length field cannot
	// drive a giant allocation.
	maxPayload = wire.MaxPayload
)

// RecordKind discriminates WAL records.
type RecordKind uint8

const (
	// RecordBatch carries the accepted elements of one ingest batch as a
	// text body (the graph-stream text codec). The server no longer
	// writes it — every batch is logged as RecordBatchBinary — but the
	// decoder stays so a data directory whose WAL tail was written by an
	// earlier build still recovers, and Store.Append(RecordBatch, ...)
	// stays for the benchmark's per-layer trace, which measures it.
	RecordBatch RecordKind = 1
	// RecordDrain marks a window drain (Server.Drain): replay must force
	// the same assignment barrier at the same stream position.
	RecordDrain RecordKind = 2
	// RecordBarrier marks a checkpoint barrier (drain + engine reseed).
	// It is written before the snapshot; when the snapshot write then
	// succeeds and rotates the WAL the record is covered and filtered,
	// but when it fails, replay must reproduce the reseed too — a drain
	// alone would leave the engine (and its tie-break RNG) in a
	// different state than the live server had.
	RecordBarrier RecordKind = 3
	// RecordBatchBinary carries the accepted elements of one ingest
	// batch: the body is a binary frame payload (internal/stream). A
	// dedup-clean binary ingest frame whose every element was accepted is
	// appended verbatim, so the hot ingest path never re-encodes; text
	// batches and partly accepted ones are logged as the accepted subset
	// encoded by the server's own stream.FrameEncoder.
	RecordBatchBinary RecordKind = 4
)

// Record is one decoded WAL entry.
type Record struct {
	Seq   uint64
	Kind  RecordKind
	Elems []stream.Element // batch records only
}

// CodecSafeLabel reports whether l survives the line-oriented text codecs
// (graph files, WAL bodies, snapshots): non-empty and free of anything
// the decoders treat as whitespace. The bar is unicode.IsSpace because
// that is exactly what strings.Fields splits on and strings.TrimSpace
// trims — an ASCII-only check would let labels like "a\vb" (splits into
// extra fields) or "b\v" (silently decodes as "b") through, acknowledging
// batches the codecs cannot replay faithfully. The serve layer rejects
// unsafe labels at ingest with this same predicate, so the accepted
// stream is always encodable.
func CodecSafeLabel(l graph.Label) bool {
	return wire.SafeLabel(string(l))
}

// encodeElements renders elems in the graph-stream text codec. Labels
// must be codec-safe; the serve layer enforces this at ingest validation,
// so an error here indicates a caller bug.
func encodeElements(buf *bytes.Buffer, elems []stream.Element) error {
	for i := range elems {
		el := &elems[i]
		switch el.Kind {
		case stream.VertexElement:
			if !CodecSafeLabel(el.Label) {
				return fmt.Errorf("checkpoint: vertex %d label %q is not codec-safe", el.V, el.Label)
			}
			fmt.Fprintf(buf, "v %d %s\n", el.V, el.Label)
		case stream.EdgeElement:
			fmt.Fprintf(buf, "e %d %d\n", el.V, el.U)
		case stream.RemoveVertexElement:
			fmt.Fprintf(buf, "rv %d\n", el.V)
		case stream.RemoveEdgeElement:
			fmt.Fprintf(buf, "re %d %d\n", el.V, el.U)
		default:
			return fmt.Errorf("checkpoint: unknown element kind %d", el.Kind)
		}
	}
	return nil
}

// decodeElements parses a batch body back into elements.
func decodeElements(body []byte) ([]stream.Element, error) {
	src := stream.FromReader(bytes.NewReader(body))
	var out []stream.Element
	for {
		el, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, el)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// encodeRecord frames one record whose body is built from elems.
func encodeRecord(seq uint64, kind RecordKind, elems []stream.Element) ([]byte, error) {
	var body bytes.Buffer
	if kind == RecordBatch {
		if err := encodeElements(&body, elems); err != nil {
			return nil, err
		}
	}
	return encodeRecordBody(seq, kind, body.Bytes()), nil
}

// encodeRecordBody frames one record around a pre-encoded body using the
// shared wire framing. This is the path binary ingest batches take: the
// body is the frame payload binary ingest already decoded and validated,
// appended without re-encoding.
func encodeRecordBody(seq uint64, kind RecordKind, body []byte) []byte {
	frame := make([]byte, frameHeaderSize+payloadHeaderSize+len(body))
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint64(payload[0:8], seq)
	payload[8] = byte(kind)
	copy(payload[payloadHeaderSize:], body)
	wire.PutHeader(frame[:frameHeaderSize], payload)
	return frame
}

// decodePayload parses one CRC-validated payload.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) < payloadHeaderSize {
		return Record{}, fmt.Errorf("checkpoint: payload %d bytes, want >= %d", len(payload), payloadHeaderSize)
	}
	rec := Record{
		Seq:  binary.LittleEndian.Uint64(payload[0:8]),
		Kind: RecordKind(payload[8]),
	}
	body := payload[payloadHeaderSize:]
	switch rec.Kind {
	case RecordBatch:
		elems, err := decodeElements(body)
		if err != nil {
			return Record{}, err
		}
		rec.Elems = elems
	case RecordBatchBinary:
		elems, err := stream.DecodeFramePayload(body)
		if err != nil {
			return Record{}, err
		}
		rec.Elems = elems
	case RecordDrain, RecordBarrier:
		if len(body) != 0 {
			return Record{}, fmt.Errorf("checkpoint: record kind %d carries %d body bytes", rec.Kind, len(body))
		}
	default:
		return Record{}, fmt.Errorf("checkpoint: unknown record kind %d", rec.Kind)
	}
	return rec, nil
}

// segmentScan is the result of reading one WAL segment.
type segmentScan struct {
	start uint64   // first sequence number, from the header
	recs  []Record // intact records, consecutive from start
	valid int64    // file offset just past the last intact record
	torn  bool     // trailing bytes were discarded
}

var errBadSegmentHeader = fmt.Errorf("checkpoint: bad WAL segment header")

// errWriterBroken is returned by every append after a failed rollback;
// hoisted to a package variable so the hot append path allocates nothing.
var errWriterBroken = errors.New("checkpoint: WAL writer broken by an earlier failed write")

// scanSegment decodes a whole segment from data. A missing or corrupt
// header yields errBadSegmentHeader. Framing-level damage — short or
// checksum-failing trailing bytes, the only shapes a torn write can
// leave — ends the scan as a torn tail, never an error and never a
// panic. A frame whose checksum passes but whose payload does not decode
// (or carries the wrong sequence number) cannot come from a torn write:
// that is corruption or an encoder/decoder mismatch, and it is returned
// as an error so recovery refuses to start instead of silently
// truncating every acknowledged record behind it.
func scanSegment(data []byte) (segmentScan, error) {
	if len(data) < walHeaderSize || string(data[:len(walMagic)]) != walMagic {
		return segmentScan{}, errBadSegmentHeader
	}
	s := segmentScan{
		start: binary.LittleEndian.Uint64(data[len(walMagic):walHeaderSize]),
		valid: int64(walHeaderSize),
	}
	next := s.start
	pos := walHeaderSize
	for {
		if pos == len(data) {
			return s, nil // clean end
		}
		if len(data)-pos < frameHeaderSize {
			s.torn = true
			return s, nil
		}
		n, sum := wire.ParseHeader(data[pos : pos+frameHeaderSize])
		if n < payloadHeaderSize || n > maxPayload || len(data)-pos-frameHeaderSize < n {
			s.torn = true
			return s, nil
		}
		payload := data[pos+frameHeaderSize : pos+frameHeaderSize+n]
		if !wire.Verify(payload, sum) {
			s.torn = true
			return s, nil
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return s, fmt.Errorf("checkpoint: offset %d: CRC-valid record does not decode: %w", pos, err)
		}
		if rec.Seq != next {
			return s, fmt.Errorf("checkpoint: offset %d: record seq %d, want %d", pos, rec.Seq, next)
		}
		s.recs = append(s.recs, rec)
		next++
		pos += frameHeaderSize + n
		s.valid = int64(pos)
	}
}

// readSegmentFile scans the segment at path. The fault.WALReadCorrupt
// failpoint flips the last byte of the in-memory image before the scan,
// simulating on-disk corruption of the tail: the scan must degrade to a
// torn tail, never a panic.
func readSegmentFile(path string) (segmentScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segmentScan{}, err
	}
	if inj := fault.Hit(fault.WALReadCorrupt); inj != nil && len(data) > walHeaderSize {
		data[len(data)-1] ^= 0xff
	}
	return scanSegment(data)
}

// walWriter appends framed records to one open segment file.
type walWriter struct {
	f     *os.File
	path  string
	start uint64
	next  uint64
	sync  bool
	// off is the offset just past the last intact frame. A failed or
	// short frame write is rolled back by truncating to off; if even that
	// fails the writer flips broken and refuses further appends — leaving
	// a torn frame mid-file would make every later (fsynced!) record
	// unreachable to the recovery scan.
	off    int64
	broken bool
}

// createSegment writes a fresh segment with the given start sequence. The
// header is written and (under SyncAlways) synced before the writer is
// returned, so a crash right after rotation leaves a parseable segment.
//
//loom:framedwriter emits the fixed-size segment header the frame scan starts from
func createSegment(path string, start uint64, syncOn bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint64(hdr[len(walMagic):], start)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if syncOn {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &walWriter{f: f, path: path, start: start, next: start, sync: syncOn, off: int64(walHeaderSize)}, nil
}

// openSegmentForAppend reopens an existing segment, truncating any torn
// tail back to validSize, and positions the writer at the end.
func openSegmentForAppend(path string, sc segmentScan, syncOn bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(sc.valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(sc.valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	next := sc.start + uint64(len(sc.recs))
	return &walWriter{f: f, path: path, start: sc.start, next: next, sync: syncOn, off: sc.valid}, nil
}

// append frames and writes one record, returning its size on disk. A
// failed write is rolled back to the previous frame boundary; a failed
// rollback breaks the writer for good (fail-fast beats acknowledging
// records the recovery scan can never reach behind a torn frame).
//
//loom:framedwriter this is the CRC-framing helper itself; every byte it writes is a framed record
//loom:hotpath
func (w *walWriter) append(kind RecordKind, elems []stream.Element) (int, error) {
	if w.broken {
		return 0, errWriterBroken
	}
	// Fault injection sites mirror the real failure shapes: WALAppend
	// fails before any byte moves, WALFrameWrite tears (ShortWrite) or
	// fails the frame write, WALSync fails the fsync after a complete
	// frame. Each takes the same rollback path the organic error would.
	if err := fault.Check(fault.WALAppend); err != nil {
		return 0, err
	}
	frame, err := encodeRecord(w.next, kind, elems)
	if err != nil {
		return 0, err
	}
	return w.writeFrame(frame)
}

// appendBody frames and writes one record around a pre-encoded body —
// the zero-re-encode path binary ingest batches take. Same fault sites
// and rollback guarantees as append.
//
//loom:framedwriter shares the frame write/rollback tail with append; every byte is a framed record
//loom:hotpath
func (w *walWriter) appendBody(kind RecordKind, body []byte) (int, error) {
	if w.broken {
		return 0, errWriterBroken
	}
	if err := fault.Check(fault.WALAppend); err != nil {
		return 0, err
	}
	return w.writeFrame(encodeRecordBody(w.next, kind, body))
}

// writeFrame writes one already-framed record, honouring the frame-write
// and sync failpoints and rolling back to the previous frame boundary on
// failure.
//
//loom:framedwriter the single sink both append paths funnel framed bytes through
//loom:hotpath
func (w *walWriter) writeFrame(frame []byte) (int, error) {
	if inj := fault.Hit(fault.WALFrameWrite); inj != nil {
		if sw := inj.ShortWrite; sw > 0 && sw < len(frame) {
			// A genuinely torn frame prefix, exactly what a crash or
			// ENOSPC mid-write leaves; rollback must truncate it away.
			_, _ = w.f.Write(frame[:sw])
		}
		w.rollback()
		return 0, inj.Failure()
	}
	n, err := w.f.Write(frame)
	if err != nil || n != len(frame) {
		w.rollback()
		if err == nil {
			err = io.ErrShortWrite
		}
		return 0, err
	}
	if w.sync {
		if err := fault.Check(fault.WALSync); err != nil {
			w.rollback()
			return 0, err
		}
		if err := w.f.Sync(); err != nil {
			// Rolling the unsynced frame back keeps one invariant for
			// callers: a failed append leaves no record. (Recovery copes
			// either way — a frame boundary is always a valid file end.)
			w.rollback()
			return 0, err
		}
	}
	w.off += int64(len(frame))
	w.next++
	return len(frame), nil
}

// rollback truncates a torn frame back to the previous frame boundary;
// failure to do so breaks the writer permanently.
func (w *walWriter) rollback() {
	if terr := w.f.Truncate(w.off); terr != nil {
		w.broken = true
	} else if _, serr := w.f.Seek(w.off, io.SeekStart); serr != nil {
		w.broken = true
	}
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

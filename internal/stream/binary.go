package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"loom/internal/graph"
	"loom/internal/wire"
)

// Binary graph-stream wire codec.
//
// A binary element frame is one wire frame (u32 LE payload length |
// u32 LE CRC32(payload) | payload — see internal/wire) whose payload is
//
//	u8 version (1 or 2)
//	uvarint labelCount
//	labelCount × (uvarint byteLen | label bytes)   // batch-scoped dictionary
//	uvarint elemCount
//	elemCount × element
//
// and each element is
//
//	u8 kind 0 (vertex):        varint id      | uvarint dictionary index
//	u8 kind 1 (edge):          varint u       | varint v
//	u8 kind 2 (remove vertex): varint id                      // version ≥ 2
//	u8 kind 3 (remove edge):   varint u       | varint v      // version ≥ 2
//
// (varint = zigzag-encoded signed LEB128, uvarint = unsigned LEB128.)
//
// Version 2 adds the removal kinds; the encoder stamps a frame version 2
// only when the batch actually carries a removal, so insert-only streams
// stay readable by version-1 decoders. A removal kind inside a version-1
// payload is ErrFrameKind.
//
// The dictionary is strictly batch-scoped: a frame carries every label it
// references, so frames are decodable in isolation, connections can be
// split or re-ordered at frame granularity, and the decoder keeps no
// cross-frame state a lost connection could corrupt. The decoder rejects
// unknown versions and kinds, out-of-range dictionary indexes, labels the
// text codecs cannot replay (wire.SafeLabel), self-loop edges, and
// trailing bytes; intra-frame duplicate vertices and edges are dropped
// (counted in Batch.Deduped) so the single-writer loop only ever sees
// pre-deduplicated work. Duplicates are tracked per identity as "last
// operation wins once": an add followed by a removal of the same vertex
// (or edge), or vice versa, is NOT a duplicate — only the same operation
// repeated back-to-back within a frame is dropped — so a churny frame can
// legally carry add → remove → re-add of one identity in order.

// BinaryVersion is the base frame payload format version (insert-only
// element kinds).
const BinaryVersion = 1

// BinaryVersionRemovals is the frame payload version that adds the
// remove-vertex / remove-edge element kinds.
const BinaryVersionRemovals = 2

// BinaryContentType is the MIME type loom-serve routes to the binary
// codec on POST /ingest.
const BinaryContentType = "application/x-loom-frame"

const (
	frameKindVertex       = 0
	frameKindEdge         = 1
	frameKindRemoveVertex = 2
	frameKindRemoveEdge   = 3
)

// Typed decode errors: a frame failing any of these is poisoned — the
// serve layer refuses it wholesale (HTTP 400) without touching the
// writer or the WAL. Package variables so the hot decode path does not
// allocate error values.
var (
	ErrFrameCRC       = errors.New("stream: frame CRC mismatch")
	ErrFrameVersion   = errors.New("stream: unsupported frame version")
	ErrFrameTruncated = errors.New("stream: frame payload truncated")
	ErrFrameKind      = errors.New("stream: unknown element kind in frame")
	ErrFrameLabel     = errors.New("stream: frame label is not codec-safe")
	ErrFrameDictIndex = errors.New("stream: frame label index out of range")
	ErrFrameSelfLoop  = errors.New("stream: frame edge is a self-loop")
	ErrFrameTrailing  = errors.New("stream: trailing bytes after frame elements")
	ErrFrameDuplicate = errors.New("stream: frame carries intra-frame duplicates")
)

// Batch is one ingest batch in flight from the wire to the writer: a
// binary frame, or up to TextBatchSize text records (ReaderSource.ReadBatch,
// which leaves Payload empty). For a frame, Payload holds the raw frame
// payload exactly as received (the shape the WAL can append as a record
// body without re-encoding) and Elems is the decoded, validated,
// intra-frame-deduplicated element list. Buffers are reused across Reset
// cycles.
type Batch struct {
	Payload []byte
	CRC     uint32 // from the frame header; checked by FrameDecoder.Decode
	Elems   []Element
	Deduped int // intra-frame duplicate vertices/edges dropped by decode
}

// Reset empties the batch, keeping capacity.
func (b *Batch) Reset() {
	b.Payload = b.Payload[:0]
	b.Elems = b.Elems[:0]
	b.Deduped = 0
	b.CRC = 0
}

// FrameEncoder renders element batches as binary frames. The zero value
// is ready; scratch buffers are reused across calls. Not safe for
// concurrent use.
type FrameEncoder struct {
	index   map[graph.Label]uint64
	labels  []graph.Label
	payload []byte
}

// AppendFrame encodes elems as one complete frame (header + payload)
// appended to dst, returning the extended slice.
func (e *FrameEncoder) AppendFrame(dst []byte, elems []Element) ([]byte, error) {
	p, err := e.AppendPayload(e.payload[:0], elems)
	if err != nil {
		return dst, err
	}
	e.payload = p
	return wire.AppendFrame(dst, p), nil
}

// AppendPayload encodes elems as a bare frame payload (no header)
// appended to dst — the exact bytes a WAL binary-batch record carries as
// its body.
func (e *FrameEncoder) AppendPayload(dst []byte, elems []Element) ([]byte, error) {
	if e.index == nil {
		e.index = make(map[graph.Label]uint64)
	} else {
		clear(e.index)
	}
	e.labels = e.labels[:0]
	hasRemovals := false
	for i := range elems {
		el := &elems[i]
		switch el.Kind {
		case VertexElement:
			if !wire.SafeLabel(string(el.Label)) {
				return nil, fmt.Errorf("stream: vertex %d label %q is not codec-safe", el.V, el.Label)
			}
			if _, ok := e.index[el.Label]; !ok {
				e.index[el.Label] = uint64(len(e.labels))
				e.labels = append(e.labels, el.Label)
			}
		case EdgeElement, RemoveEdgeElement:
			if el.V == el.U {
				return nil, fmt.Errorf("stream: edge (%d,%d) is a self-loop", el.V, el.U)
			}
			if el.Kind == RemoveEdgeElement {
				hasRemovals = true
			}
		case RemoveVertexElement:
			hasRemovals = true
		default:
			return nil, fmt.Errorf("stream: unknown element kind %d", el.Kind)
		}
	}
	if hasRemovals {
		dst = append(dst, BinaryVersionRemovals)
	} else {
		dst = append(dst, BinaryVersion)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.labels)))
	for _, l := range e.labels {
		dst = binary.AppendUvarint(dst, uint64(len(l)))
		dst = append(dst, l...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(elems)))
	for i := range elems {
		el := &elems[i]
		switch el.Kind {
		case VertexElement:
			dst = append(dst, frameKindVertex)
			dst = binary.AppendVarint(dst, int64(el.V))
			dst = binary.AppendUvarint(dst, e.index[el.Label])
		case RemoveVertexElement:
			dst = append(dst, frameKindRemoveVertex)
			dst = binary.AppendVarint(dst, int64(el.V))
		case RemoveEdgeElement:
			dst = append(dst, frameKindRemoveEdge)
			dst = binary.AppendVarint(dst, int64(el.V))
			dst = binary.AppendVarint(dst, int64(el.U))
		default:
			dst = append(dst, frameKindEdge)
			dst = binary.AppendVarint(dst, int64(el.V))
			dst = binary.AppendVarint(dst, int64(el.U))
		}
	}
	return dst, nil
}

// FrameDecoder decodes binary frames. One decoder per goroutine; its
// label intern cache and generation-stamped dedup maps persist across
// frames so the steady-state decode path allocates nothing.
//
// The dedup maps store gen<<1|op (op 1 = add, 0 = remove): an element is
// a duplicate only when it repeats the last operation on that identity
// within the same frame, so add/remove alternation passes through. gen
// starts at 1, so the zero value of a missing map entry never aliases a
// mark. Edge marks are stamped with egen, which also advances at every
// kept vertex removal: removing a vertex removes its incident edges, so
// "e u v, rv u, v u, e u v" repeats no operation. The decoder does not
// track incidence and forgets every edge mark instead — a true duplicate
// that slips through is still rejected by the writer's validation. This
// is what lets any element sequence the writer accepted be logged as one
// payload that DecodeFramePayload finds duplicate-free.
type FrameDecoder struct {
	intern map[string]graph.Label
	dict   []graph.Label
	seenV  map[graph.VertexID]uint64
	seenE  map[graph.Edge]uint64
	gen    uint64
	egen   uint64
}

// Decode verifies b.CRC against b.Payload and parses the payload into
// b.Elems. On error the batch must be treated as poisoned: nothing in it
// may reach the writer.
//
//loom:hotpath
func (d *FrameDecoder) Decode(b *Batch) error {
	if !wire.Verify(b.Payload, b.CRC) {
		return ErrFrameCRC
	}
	return d.DecodePayload(b)
}

// DecodePayload parses b.Payload (CRC already established, e.g. by the
// WAL's own frame check) into b.Elems. Element Seq numbers restart at 0
// per frame, matching the text codec's per-record numbering.
//
//loom:hotpath
func (d *FrameDecoder) DecodePayload(b *Batch) error {
	if d.seenV == nil {
		d.seenV = make(map[graph.VertexID]uint64)
	}
	if d.seenE == nil {
		d.seenE = make(map[graph.Edge]uint64)
	}
	p := b.Payload
	b.Elems = b.Elems[:0]
	b.Deduped = 0
	if len(p) < 1 {
		return ErrFrameTruncated
	}
	if p[0] != BinaryVersion && p[0] != BinaryVersionRemovals {
		return ErrFrameVersion
	}
	removals := p[0] == BinaryVersionRemovals
	o := 1
	labelCount, o, ok := uvarintAt(p, o)
	if !ok {
		return ErrFrameTruncated
	}
	d.dict = d.dict[:0]
	for i := uint64(0); i < labelCount; i++ {
		n, next, ok := uvarintAt(p, o)
		if !ok || uint64(len(p)-next) < n {
			return ErrFrameTruncated
		}
		o = next
		l, ok := d.lookupLabel(p[o : o+int(n)])
		if !ok {
			l = d.internLabel(p[o : o+int(n)])
		}
		if l == "" {
			return ErrFrameLabel
		}
		d.dict = append(d.dict, l)
		o += int(n)
	}
	elemCount, o, ok := uvarintAt(p, o)
	if !ok {
		return ErrFrameTruncated
	}
	d.gen++
	d.egen++
	gen := d.gen
	for i := uint64(0); i < elemCount; i++ {
		if o >= len(p) {
			return ErrFrameTruncated
		}
		kind := p[o]
		o++
		switch kind {
		case frameKindVertex:
			id, next, ok := varintAt(p, o)
			if !ok {
				return ErrFrameTruncated
			}
			o = next
			li, next, ok := uvarintAt(p, o)
			if !ok {
				return ErrFrameTruncated
			}
			o = next
			if li >= uint64(len(d.dict)) {
				return ErrFrameDictIndex
			}
			v := graph.VertexID(id)
			mark := gen<<1 | 1
			if d.seenV[v] == mark {
				b.Deduped++
				continue
			}
			d.seenV[v] = mark
			b.Elems = append(b.Elems, Element{
				Kind: VertexElement, V: v, Label: d.dict[li], Seq: len(b.Elems),
			})
		case frameKindEdge:
			u, next, ok := varintAt(p, o)
			if !ok {
				return ErrFrameTruncated
			}
			o = next
			v, next, ok := varintAt(p, o)
			if !ok {
				return ErrFrameTruncated
			}
			o = next
			if u == v {
				return ErrFrameSelfLoop
			}
			e := graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)}.Normalize()
			mark := d.egen<<1 | 1
			if d.seenE[e] == mark {
				b.Deduped++
				continue
			}
			d.seenE[e] = mark
			b.Elems = append(b.Elems, Element{
				Kind: EdgeElement, V: graph.VertexID(u), U: graph.VertexID(v), Seq: len(b.Elems),
			})
		case frameKindRemoveVertex:
			if !removals {
				return ErrFrameKind
			}
			id, next, ok := varintAt(p, o)
			if !ok {
				return ErrFrameTruncated
			}
			o = next
			v := graph.VertexID(id)
			mark := gen << 1
			if d.seenV[v] == mark {
				b.Deduped++
				continue
			}
			d.seenV[v] = mark
			d.egen++
			b.Elems = append(b.Elems, Element{
				Kind: RemoveVertexElement, V: v, Seq: len(b.Elems),
			})
		case frameKindRemoveEdge:
			if !removals {
				return ErrFrameKind
			}
			u, next, ok := varintAt(p, o)
			if !ok {
				return ErrFrameTruncated
			}
			o = next
			v, next, ok := varintAt(p, o)
			if !ok {
				return ErrFrameTruncated
			}
			o = next
			if u == v {
				return ErrFrameSelfLoop
			}
			e := graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)}.Normalize()
			mark := d.egen << 1
			if d.seenE[e] == mark {
				b.Deduped++
				continue
			}
			d.seenE[e] = mark
			b.Elems = append(b.Elems, Element{
				Kind: RemoveEdgeElement, V: graph.VertexID(u), U: graph.VertexID(v), Seq: len(b.Elems),
			})
		default:
			return ErrFrameKind
		}
	}
	if o != len(p) {
		return ErrFrameTrailing
	}
	return nil
}

// lookupLabel is the alloc-free intern-cache hit path: a map index with a
// string([]byte) key does not allocate.
//
//loom:hotpath
func (d *FrameDecoder) lookupLabel(b []byte) (graph.Label, bool) {
	l, ok := d.intern[string(b)]
	return l, ok
}

// internLabel is the cold miss path: validate the label bytes and add the
// canonical string to the cache. Returns "" for labels the codecs cannot
// replay.
func (d *FrameDecoder) internLabel(b []byte) graph.Label {
	if !wire.SafeLabelBytes(b) {
		return ""
	}
	if d.intern == nil {
		d.intern = make(map[string]graph.Label)
	}
	l := graph.Label(b)
	d.intern[string(b)] = l
	return l
}

func uvarintAt(p []byte, o int) (uint64, int, bool) {
	v, n := binary.Uvarint(p[o:])
	if n <= 0 {
		return 0, o, false
	}
	return v, o + n, true
}

func varintAt(p []byte, o int) (int64, int, bool) {
	v, n := binary.Varint(p[o:])
	if n <= 0 {
		return 0, o, false
	}
	return v, o + n, true
}

// DecodeFramePayload decodes one frame payload with a throwaway decoder.
// It refuses payloads containing intra-frame duplicates: the serve layer
// only logs dedup-clean payloads, so a duplicate in a WAL body is
// corruption, not data. Used by WAL replay and the differential fuzzers.
func DecodeFramePayload(payload []byte) ([]Element, error) {
	var d FrameDecoder
	b := Batch{Payload: payload}
	if err := d.DecodePayload(&b); err != nil {
		return nil, err
	}
	if b.Deduped > 0 {
		return nil, ErrFrameDuplicate
	}
	return b.Elems, nil
}

// FrameReader reads length-prefixed binary frames off r. Next fills a
// Batch's Payload/CRC without decoding; FrameDecoder.Decode does the rest.
type FrameReader struct {
	br     *bufio.Reader
	frames int
}

// readStep is how many payload bytes FrameReader.Next reads at a time
// while the payload buffer still has to grow.
const readStep = 64 << 10

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	fr := new(FrameReader)
	fr.Reset(r)
	return fr
}

// Reset restarts fr on r, reusing its read buffer.
func (fr *FrameReader) Reset(r io.Reader) {
	if fr.br == nil {
		fr.br = bufio.NewReaderSize(r, 64<<10)
	} else {
		fr.br.Reset(r)
	}
	fr.frames = 0
}

// Frames returns how many frames have been read so far.
func (fr *FrameReader) Frames() int { return fr.frames }

// Next reads one frame into b, reusing b's buffers. It returns io.EOF at
// a clean end of stream; a header or payload cut short mid-frame is an
// error (the frame boundary is the unit of delivery).
func (fr *FrameReader) Next(b *Batch) error {
	var hdr [wire.HeaderSize]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("stream: frame %d header cut short: %w", fr.frames, ErrFrameTruncated)
		}
		return err
	}
	n, crc := wire.ParseHeader(hdr[:])
	if n > wire.MaxPayload {
		return fmt.Errorf("stream: frame %d payload %d bytes exceeds cap %d", fr.frames, n, wire.MaxPayload)
	}
	// The buffer grows as payload bytes arrive, never on the header's
	// word alone: a short body claiming a huge frame costs an allocation
	// in proportion to what it sent (at least one readStep), not to what
	// it claims.
	b.Payload = b.Payload[:0]
	for m := 0; m < n; m = len(b.Payload) {
		step := min(n-m, max(cap(b.Payload)-m, readStep))
		b.Payload = slices.Grow(b.Payload, step)[:m+step]
		if _, err := io.ReadFull(fr.br, b.Payload[m:]); err != nil {
			return fmt.Errorf("stream: frame %d payload cut short: %w", fr.frames, ErrFrameTruncated)
		}
	}
	b.CRC = crc
	b.Elems = b.Elems[:0]
	b.Deduped = 0
	fr.frames++
	return nil
}

// FrameWriter renders element batches as binary frames onto w — the
// client half of the codec (benchmarks, tests, the chaos harness).
type FrameWriter struct {
	w   io.Writer
	enc FrameEncoder
	buf []byte
}

// NewFrameWriter returns a FrameWriter writing to w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// WriteBatch encodes elems as one frame and writes it out.
func (fw *FrameWriter) WriteBatch(elems []Element) error {
	buf, err := fw.enc.AppendFrame(fw.buf[:0], elems)
	if err != nil {
		return err
	}
	fw.buf = buf
	_, err = fw.w.Write(buf)
	return err
}

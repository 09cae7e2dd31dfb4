package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"loom/internal/graph"
	"loom/internal/wire"
)

func frameElems() []Element {
	return []Element{
		{Kind: VertexElement, V: 1, Label: "a", Seq: 0},
		{Kind: VertexElement, V: 2, Label: "b", Seq: 1},
		{Kind: EdgeElement, V: 2, U: 1, Seq: 2},
		{Kind: VertexElement, V: -7, Label: "a", Seq: 3}, // negative id, reused label
		{Kind: EdgeElement, V: -7, U: 2, Seq: 4},
	}
}

func encodeFrame(t *testing.T, elems []Element) []byte {
	t.Helper()
	var enc FrameEncoder
	frame, err := enc.AppendFrame(nil, elems)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return frame
}

func decodeFrame(t *testing.T, d *FrameDecoder, frame []byte) *Batch {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(frame))
	var b Batch
	if err := fr.Next(&b); err != nil {
		t.Fatalf("read frame: %v", err)
	}
	if err := d.Decode(&b); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &b
}

func TestBinaryRoundTrip(t *testing.T) {
	elems := frameElems()
	var d FrameDecoder
	b := decodeFrame(t, &d, encodeFrame(t, elems))
	if b.Deduped != 0 {
		t.Fatalf("deduped %d, want 0", b.Deduped)
	}
	if len(b.Elems) != len(elems) {
		t.Fatalf("decoded %d elements, want %d", len(b.Elems), len(elems))
	}
	for i := range elems {
		if b.Elems[i] != elems[i] {
			t.Fatalf("element %d: got %v, want %v", i, b.Elems[i], elems[i])
		}
	}
}

func TestBinaryMultiFrameStream(t *testing.T) {
	elems := frameElems()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteBatch(elems[:2]); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteBatch(elems[2:]); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	var d FrameDecoder
	var got []Element
	var b Batch
	for {
		err := fr.Next(&b)
		if err != nil {
			break
		}
		if derr := d.Decode(&b); derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		got = append(got, b.Elems...)
	}
	if fr.Frames() != 2 {
		t.Fatalf("read %d frames, want 2", fr.Frames())
	}
	if len(got) != len(elems) {
		t.Fatalf("decoded %d elements, want %d", len(got), len(elems))
	}
	for i := range elems {
		if got[i].Kind != elems[i].Kind || got[i].V != elems[i].V || got[i].U != elems[i].U || got[i].Label != elems[i].Label {
			t.Fatalf("element %d: got %v, want %v", i, got[i], elems[i])
		}
	}
	// Reset starts the reader over on a new stream.
	fr.Reset(bytes.NewReader(encodeFrame(t, elems[:1])))
	if err := fr.Next(&b); err != nil || fr.Frames() != 1 {
		t.Fatalf("after Reset: %v, %d frames", err, fr.Frames())
	}
	if err := fr.Next(&b); err != io.EOF {
		t.Fatalf("after Reset: end %v, want io.EOF", err)
	}
}

func TestBinaryDecodeDedup(t *testing.T) {
	elems := []Element{
		{Kind: VertexElement, V: 1, Label: "a"},
		{Kind: VertexElement, V: 2, Label: "b"},
		{Kind: VertexElement, V: 1, Label: "b"}, // dup vertex, different label
		{Kind: EdgeElement, V: 1, U: 2},
		{Kind: EdgeElement, V: 2, U: 1}, // dup edge, reversed
	}
	var d FrameDecoder
	b := decodeFrame(t, &d, encodeFrame(t, elems))
	if b.Deduped != 2 {
		t.Fatalf("deduped %d, want 2", b.Deduped)
	}
	if len(b.Elems) != 3 {
		t.Fatalf("kept %d elements, want 3", len(b.Elems))
	}
	// A second frame with the same ids must not be deduped against the
	// first: the dedup maps are generation-stamped, not cross-frame.
	b2 := decodeFrame(t, &d, encodeFrame(t, elems[:2]))
	if b2.Deduped != 0 || len(b2.Elems) != 2 {
		t.Fatalf("cross-frame dedup leaked: deduped=%d kept=%d", b2.Deduped, len(b2.Elems))
	}
}

func TestBinaryDecodeRejections(t *testing.T) {
	good := encodeFrame(t, frameElems())
	payload := append([]byte(nil), good[wire.HeaderSize:]...)

	check := func(name string, mutate func([]byte) []byte, want error) {
		t.Helper()
		p := mutate(append([]byte(nil), payload...))
		var d FrameDecoder
		b := Batch{Payload: p}
		err := d.DecodePayload(&b)
		if err == nil {
			t.Fatalf("%s: decode accepted", name)
		}
		if want != nil && err != want {
			t.Fatalf("%s: got %v, want %v", name, err, want)
		}
	}

	check("bad version", func(p []byte) []byte { p[0] = 99; return p }, ErrFrameVersion)
	check("truncated", func(p []byte) []byte { return p[:len(p)-1] }, ErrFrameTruncated)
	check("trailing", func(p []byte) []byte { return append(p, 0) }, ErrFrameTrailing)
	check("empty", func(p []byte) []byte { return nil }, ErrFrameTruncated)

	// CRC mismatch is caught by Decode (not DecodePayload).
	var d FrameDecoder
	b := Batch{Payload: payload, CRC: 0xdeadbeef}
	if err := d.Decode(&b); err != ErrFrameCRC {
		t.Fatalf("bad CRC: got %v, want %v", err, ErrFrameCRC)
	}

	// Self-loop and dictionary overflow need hand-built payloads: the
	// encoder refuses to emit either.
	self := []byte{BinaryVersion, 0 /* labels */, 1 /* elems */, frameKindEdge, 6 /* zigzag(3) */, 6}
	var d2 FrameDecoder
	if derr := d2.DecodePayload(&Batch{Payload: self}); derr != ErrFrameSelfLoop {
		t.Fatalf("self-loop: got %v, want %v", derr, ErrFrameSelfLoop)
	}

	var enc FrameEncoder
	dict, err := enc.AppendPayload(nil, []Element{{Kind: VertexElement, V: 1, Label: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	// Last byte is the label index 0; bump it past the dictionary.
	dict[len(dict)-1] = 5
	var d3 FrameDecoder
	if derr := d3.DecodePayload(&Batch{Payload: dict}); derr != ErrFrameDictIndex {
		t.Fatalf("dict overflow: got %v, want %v", derr, ErrFrameDictIndex)
	}
}

func TestBinaryEncoderRejectsUnsafe(t *testing.T) {
	var enc FrameEncoder
	if _, err := enc.AppendFrame(nil, []Element{{Kind: VertexElement, V: 1, Label: "a b"}}); err == nil {
		t.Fatal("encoder accepted a non-codec-safe label")
	}
	if _, err := enc.AppendFrame(nil, []Element{{Kind: EdgeElement, V: 4, U: 4}}); err == nil {
		t.Fatal("encoder accepted a self-loop")
	}
}

func TestDecodeFramePayloadRefusesDuplicates(t *testing.T) {
	elems := []Element{
		{Kind: VertexElement, V: 1, Label: "a"},
		{Kind: VertexElement, V: 1, Label: "a"},
	}
	var enc FrameEncoder
	p, err := enc.AppendPayload(nil, elems)
	if err != nil {
		t.Fatal(err)
	}
	if _, derr := DecodeFramePayload(p); derr != ErrFrameDuplicate {
		t.Fatalf("got %v, want %v", derr, ErrFrameDuplicate)
	}
}

func TestFrameReaderTruncation(t *testing.T) {
	frame := encodeFrame(t, frameElems())
	for _, cut := range []int{1, wire.HeaderSize - 1, wire.HeaderSize + 1, len(frame) - 1} {
		fr := NewFrameReader(bytes.NewReader(frame[:cut]))
		var b Batch
		err := fr.Next(&b)
		// A cut frame must surface as an error, never as a clean EOF.
		if err == nil || err == io.EOF {
			t.Fatalf("cut at %d: expected a truncation error, got %v", cut, err)
		}
	}
	// A clean boundary is EOF, not an error.
	fr := NewFrameReader(bytes.NewReader(frame))
	var b Batch
	if err := fr.Next(&b); err != nil {
		t.Fatal(err)
	}
	if err := fr.Next(&b); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}

	// An 18-byte body whose header claims a 1 GiB payload is cut short
	// after 10 bytes: the reader must refuse it without allocating what
	// the header claims.
	huge := binary.LittleEndian.AppendUint32(nil, wire.MaxPayload)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	huge = append(huge, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := NewFrameReader(bytes.NewReader(huge)).Next(&Batch{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("1 GiB claim over 10 bytes: got %v, want ErrFrameTruncated", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("1 GiB claim over 10 bytes allocated %d bytes, want < 1 MiB", alloc)
	}
}

// TestBinaryDecodeSteadyStateAllocs pins the hot decode path at zero
// allocations once the intern cache and dedup maps are warm.
func TestBinaryDecodeSteadyStateAllocs(t *testing.T) {
	elems := frameElems()
	frame := encodeFrame(t, elems)
	payload := frame[wire.HeaderSize:]
	_, crc := wire.ParseHeader(frame[:wire.HeaderSize])
	var d FrameDecoder
	b := &Batch{}
	decode := func() {
		b.Payload = append(b.Payload[:0], payload...)
		b.CRC = crc
		if err := d.Decode(b); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	decode() // warm the caches and grow the buffers
	avg := testing.AllocsPerRun(200, decode)
	if avg != 0 {
		t.Fatalf("steady-state decode allocates %.1f/op, want 0", avg)
	}
}

func TestInternCacheReusesLabels(t *testing.T) {
	var d FrameDecoder
	b1 := decodeFrame(t, &d, encodeFrame(t, []Element{{Kind: VertexElement, V: 1, Label: "shared"}}))
	l1 := b1.Elems[0].Label
	b2 := decodeFrame(t, &d, encodeFrame(t, []Element{{Kind: VertexElement, V: 2, Label: "shared"}}))
	if b2.Elems[0].Label != l1 {
		t.Fatal("label value changed across frames")
	}
	if got := d.intern[string("shared")]; got != graph.Label("shared") {
		t.Fatalf("intern cache holds %q", got)
	}
}

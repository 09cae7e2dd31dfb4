package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"loom/internal/fault"
	"loom/internal/stream"
)

// The binary ingest front door.
//
// IngestFrames reads length-prefixed binary frames (internal/stream's
// binary codec) and decodes each one — CRC check, parse, label intern,
// intra-frame dedup, validation — on the caller's goroutine into the
// next slot of a fixed ring, then sends it to the mailbox without
// waiting, so decoding frame i+1 overlaps the writer applying frame i.
// The writer consumes one ordered stream (paper §4.1): frames are read,
// decoded and sent one at a time, so mailbox order is wire order.
//
// Decoded batches travel as ordinary envelopes through the text path's
// admission gate, mailbox, writer validation and WAL-append-before-ack,
// plus the raw payload so a fully-accepted batch is logged verbatim (see
// Server.commit). A frame that fails to read or decode is poisoned:
// IngestFrames stops at it with a *BadFrameError (HTTP 400), and nothing
// from it or any later frame reaches the writer or the WAL.

// ringSize bounds how many sent frames of one stream may await writer
// replies; it bounds frame-buffer memory, not throughput (the mailbox
// provides the real backpressure).
const ringSize = 32

// frameRing holds one stream's in-flight frames: frame i occupies slot
// i%ringSize until its buffered(1) reply is received, when the writer is
// done reading it. The decoder's caches persist across frames, keeping
// steady-state decode allocation-free. A ring serves one stream at a time.
type frameRing struct {
	dec     stream.FrameDecoder
	batches [ringSize]stream.Batch
	replies [ringSize]chan error
}

// rings recycles frameRings across requests, each returned only after
// every frame it sent has been settled.
var rings = sync.Pool{New: func() any {
	r := new(frameRing)
	for i := range r.replies {
		r.replies[i] = make(chan error, 1)
	}
	return r
}}

// BadFrameError reports a malformed binary ingest frame. The stream is
// terminated at that frame; nothing from it reached the writer or the
// WAL. Frame is the zero-based index of the offending frame.
type BadFrameError struct {
	Frame int
	Err   error
}

func (e *BadFrameError) Error() string {
	return fmt.Sprintf("serve: bad frame %d: %v", e.Frame, e.Err)
}

func (e *BadFrameError) Unwrap() error { return e.Err }

// FrameIngest summarises one binary ingest stream.
type FrameIngest struct {
	// Frames and Elements count what was decoded and handed to the
	// writer; Deduped counts intra-frame duplicates dropped by decode
	// before the writer ever saw them.
	Frames   int
	Elements int
	Deduped  int

	errs    []error
	dropped int
}

// Err joins the per-batch element errors (writer-side rejections,
// durability acknowledgement failures), capped like IngestSync's reply;
// nil when every element of every frame was accepted and acknowledged.
func (r *FrameIngest) Err() error {
	if len(r.errs) == 0 {
		return nil
	}
	errs := r.errs
	if r.dropped > 0 {
		errs = append(errs[:len(errs):len(errs)],
			fmt.Errorf("serve: %d further batch errors", r.dropped))
	}
	return errors.Join(errs...)
}

func (r *FrameIngest) note(err error) {
	if len(r.errs) < maxReportedErrors {
		r.errs = append(r.errs, err)
	} else {
		r.dropped++
	}
}

// decodeFrame runs the failpoint-instrumented decode of one frame.
//
//loom:hotpath
func decodeFrame(d *stream.FrameDecoder, b *stream.Batch) error {
	// ServeDecodeStall models a slow decode (latency-only injections
	// sleep inside Check); an erroring rule poisons the frame, same as
	// WireDecode below.
	if err := fault.Check(fault.ServeDecodeStall); err != nil {
		return err
	}
	// WireDecode poisons the frame before it is parsed: the typed error
	// path must refuse it without anything reaching the writer.
	if err := fault.Check(fault.WireDecode); err != nil {
		return err
	}
	return d.Decode(b)
}

// IngestFrames reads binary element frames from r until EOF, decoding
// each on the caller's goroutine and feeding the writer in frame order.
// It returns once every accepted frame has been processed and
// acknowledged by the writer (durability included, per the store's sync
// policy).
//
// The error is non-nil only for stream-terminating failures: a malformed
// frame (*BadFrameError), an admission refusal (*OverloadError), a wedged
// or stopped server. Per-element rejections inside otherwise-healthy
// frames do not terminate the stream; they are reported via
// FrameIngest.Err, mirroring IngestSync.
func (s *Server) IngestFrames(r io.Reader) (FrameIngest, error) {
	ring := rings.Get().(*frameRing)
	defer rings.Put(ring)
	fr := stream.NewFrameReader(r)
	var res FrameIngest
	var fatal error

	// settle receives the reply to the oldest frame still with the
	// writer. Refusals of whole batches (wedge, stop) terminate the
	// stream — later frames would meet the same refusal; element-level
	// errors accumulate.
	settled := 0
	settle := func() {
		err := <-ring.replies[settled%ringSize]
		settled++
		switch {
		case err == nil:
		case errors.Is(err, ErrWedged), errors.Is(err, ErrStopped):
			if fatal == nil {
				fatal = err
			}
		default:
			res.note(err)
		}
	}

	for fatal == nil {
		i := res.Frames % ringSize
		b := &ring.batches[i]
		err := fr.Next(b)
		if err == io.EOF {
			break
		}
		if err == nil {
			err = decodeFrame(&ring.dec, b)
		}
		if err != nil {
			fatal = &BadFrameError{Frame: res.Frames, Err: err}
			break
		}
		env := envelope{elems: b.Elems, raw: b.Payload, rawExact: b.Deduped == 0, reply: ring.replies[i]}
		if fatal = s.send(env); fatal != nil {
			break
		}
		res.Frames++
		res.Elements += len(b.Elems)
		res.Deduped += b.Deduped
		if res.Frames-settled == ringSize {
			settle()
		}
	}
	// Every sent frame is awaited: the writer reads a slot's buffers
	// until it replies, and the ring is recycled only once all are free.
	for settled < res.Frames {
		settle()
	}
	return res, fatal
}

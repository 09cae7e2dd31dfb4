package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"loom/internal/fault"
	"loom/internal/stream"
)

// The ingest front door, one path for both codecs.
//
// IngestFrames (binary frames) and IngestText (the line codec) read a
// body on the caller's goroutine one batch at a time — a decoded and
// validated frame, or up to stream.TextBatchSize text records — into the
// next slot of a fixed ring and send it to the mailbox without waiting,
// so reading batch i+1 overlaps the writer applying batch i. Batches are
// read and sent one at a time, so the writer's one ordered stream (paper
// §4.1) is wire order.
//
// Batches are ordinary envelopes: admission gate, mailbox, writer
// validation, WAL append before the ack; a frame also carries its raw
// payload so a fully-accepted frame is logged verbatim (Server.log). The
// writer's tally of each batch makes a stream's counts exact beside
// concurrent streams. A body that fails to read or decode is cut with a
// *BadFrameError (HTTP 400): nothing from a poisoned frame or any later
// batch reaches the writer or the WAL; the text records before a
// malformed line are applied as a batch of their own.

// ringSize bounds how many sent batches of one stream may await writer
// replies; it bounds batch-buffer memory, not throughput (the mailbox
// provides the real backpressure).
const ringSize = 32

// ingestRing holds one stream's readers and in-flight batches: batch i
// occupies slot i%ringSize until its buffered(1) reply is received, when
// the writer is done with it and has filled in its tally. Reader buffers
// and decoder caches persist across streams. A ring serves one stream at
// a time.
type ingestRing struct {
	frames  stream.FrameReader
	text    stream.ReaderSource
	dec     stream.FrameDecoder
	batches [ringSize]stream.Batch
	tallies [ringSize]tally
	replies [ringSize]chan error
}

// tally is the writer's account of one batch: what it added to
// Stats.Ingested (accepted) and Stats.Rejected (rejected).
type tally struct{ accepted, rejected int }

// rings recycles ingestRings across requests, each returned only after
// every batch it sent has been settled.
var rings = sync.Pool{New: func() any {
	r := new(ingestRing)
	for i := range r.replies {
		r.replies[i] = make(chan error, 1)
	}
	return r
}}

// BadFrameError reports a malformed ingest body. The stream is terminated
// at batch Frame (zero-based): the binary frame that failed, or, in a
// text body, the batch the malformed line would have started. Nothing
// from it reached the writer or the WAL.
type BadFrameError struct {
	Frame int
	Err   error
}

func (e *BadFrameError) Error() string {
	return fmt.Sprintf("serve: bad frame %d: %v", e.Frame, e.Err)
}

func (e *BadFrameError) Unwrap() error { return e.Err }

// FrameIngest summarises one ingest stream (IngestFrames or IngestText).
type FrameIngest struct {
	// Frames and Elements count the batches (binary frames, or text
	// batches of up to stream.TextBatchSize records) and elements handed
	// to the writer; Deduped counts intra-frame duplicates dropped by
	// binary decode before the writer ever saw them.
	Frames   int
	Elements int
	Deduped  int
	// Accepted and Rejected are the writer's own account of the stream:
	// exactly what it added to Stats.Ingested and Stats.Rejected, however
	// many other streams ran beside it.
	Accepted int
	Rejected int

	errs    []error
	dropped int
}

// Err joins the per-batch element errors (writer-side rejections,
// durability acknowledgement failures), capped like IngestSync's reply;
// nil when every element of every batch was accepted and acknowledged.
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

// readFrame reads the next binary frame into b and runs its
// failpoint-instrumented decode.
//
//loom:hotpath
func (r *ingestRing) readFrame(b *stream.Batch) error {
	if err := r.frames.Next(b); err != nil {
		return err
	}
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
	return r.dec.Decode(b)
}

// IngestFrames reads binary element frames from r until EOF, decoding
// each on the caller's goroutine and feeding the writer in frame order.
// It returns once every sent frame has been processed and acknowledged by
// the writer (durability included, per the store's sync policy).
//
// The error is non-nil only for stream-terminating failures: a malformed
// frame (*BadFrameError), an admission refusal (*OverloadError), a wedged
// or stopped server. Per-element rejections inside otherwise-healthy
// frames do not terminate the stream; they are reported via
// FrameIngest.Err, mirroring IngestSync.
func (s *Server) IngestFrames(r io.Reader) (FrameIngest, error) { return s.ingest(r, false) }

// IngestText is IngestFrames for a body in the line-oriented text codec
// (stream.ReaderSource), fed to the writer in batches of up to
// stream.TextBatchSize records. A malformed line ends the stream with a
// *BadFrameError after the records before it have been applied.
func (s *Server) IngestText(r io.Reader) (FrameIngest, error) { return s.ingest(r, true) }

// ingest runs one stream through a pooled ring, settling the oldest slot
// only when the ring is full and every sent batch before returning.
func (s *Server) ingest(r io.Reader, text bool) (FrameIngest, error) {
	ring := rings.Get().(*ingestRing)
	defer rings.Put(ring)
	next := ring.readFrame
	if text {
		ring.text.Reset(r)
		next = ring.text.ReadBatch
	} else {
		ring.frames.Reset(r)
	}
	var res FrameIngest
	var fatal error

	// settle receives the reply to the oldest batch still with the
	// writer. Refusals of whole batches (wedge, stop) terminate the
	// stream — later batches would meet the same refusal; element-level
	// errors accumulate.
	settled := 0
	settle := func() {
		i := settled % ringSize
		err := <-ring.replies[i]
		settled++
		res.Accepted += ring.tallies[i].accepted
		res.Rejected += ring.tallies[i].rejected
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
		err := next(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal = &BadFrameError{Frame: res.Frames, Err: err}
			break
		}
		ring.tallies[i] = tally{}
		env := envelope{elems: b.Elems, reply: ring.replies[i], tally: &ring.tallies[i]}
		if !text && b.Deduped == 0 {
			env.raw = b.Payload
		}
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
	// Every sent batch is awaited: the writer reads a slot's buffers
	// until it replies, and the ring is recycled only once all are free.
	for settled < res.Frames {
		settle()
	}
	return res, fatal
}

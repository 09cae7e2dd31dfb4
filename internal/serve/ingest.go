package serve

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"loom/internal/fault"
	"loom/internal/stream"
)

// The binary ingest front-stage.
//
// IngestFrames reads length-prefixed binary frames (internal/stream's
// binary codec) off a connection and fans the CPU-heavy work — CRC
// check, parse, label intern, intra-frame dedup, validation — out to a
// pool of decode workers, so the single-writer loop only scores and
// places. The determinism contract is preserved by construction: the
// caller's goroutine reads frames in order, hands each to a free worker,
// then re-joins the decoded batches in submission order before sending
// them to the mailbox. Batch order at the mailbox is therefore exactly
// frame order on the wire, no matter how the workers interleave.
//
// The durability contract is untouched: decoded batches travel as
// ordinary envelopes through the same admission gate, mailbox, writer
// validation and WAL-append-before-ack as the text path. The envelope
// additionally carries the raw frame payload so a fully-accepted batch
// is logged without re-encoding (see Server.commit).
//
// A frame that fails to read or decode is poisoned: IngestFrames stops
// at it, returns a *BadFrameError (HTTP 400), and nothing from that
// frame — or any later frame — reaches the writer or the WAL.

// maxPendingFrames bounds how many decoded-and-sent envelopes may await
// writer replies before the sequencer stops reading new frames; it
// bounds frame-buffer memory, not throughput (the mailbox provides the
// real backpressure).
const maxPendingFrames = 32

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
	// writer; Deduped counts intra-frame duplicates dropped by the
	// decode stage before the writer ever saw them.
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
	if err == nil {
		return
	}
	if len(r.errs) < maxReportedErrors {
		r.errs = append(r.errs, err)
	} else {
		r.dropped++
	}
}

// frameJob is one frame moving through the decode stage. The done and
// reply channels are buffered(1) and live as long as the job: done
// carries the worker's completion, reply the writer's acknowledgement.
// The job (and its batch buffers) returns to the pool only after the
// last goroutine that may touch it — worker or writer — has signalled.
type frameJob struct {
	batch stream.Batch
	err   error
	done  chan struct{}
	reply chan error
}

// startDecodeStage builds the worker pool; called once, lazily, so
// servers that never see binary ingest pay nothing and failed Opens leak
// no goroutines.
func (s *Server) startDecodeStage() {
	n := s.cfg.DecodeWorkers
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	// One frame being read ahead per worker plus one in hand keeps every
	// worker busy without unbounded read-ahead.
	s.decode.inflight = n + 1
	s.decode.jobs = make(chan *frameJob, n)
	s.decode.pool.New = func() any {
		return &frameJob{
			done:  make(chan struct{}, 1),
			reply: make(chan error, 1),
		}
	}
	for i := 0; i < n; i++ {
		go s.decodeWorker()
	}
}

// decodeWorker decodes frames until the server quits. Each worker owns
// one FrameDecoder whose intern cache and dedup maps persist across
// frames, keeping the steady-state decode allocation-free.
func (s *Server) decodeWorker() {
	var d stream.FrameDecoder
	for {
		select {
		case job := <-s.decode.jobs:
			job.err = decodeJob(&d, job)
			job.done <- struct{}{}
		case <-s.quit:
			return
		}
	}
}

// decodeJob runs the failpoint-instrumented decode of one frame.
//
//loom:hotpath
func decodeJob(d *stream.FrameDecoder, job *frameJob) error {
	// ServeDecodeStall models a slow worker (latency-only injections
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
	return d.Decode(&job.batch)
}

// IngestFrames reads binary element frames from r until EOF, decoding
// them on the parallel decode stage and feeding the writer in frame
// order. It returns once every accepted frame has been processed and
// acknowledged by the writer (durability included, per the store's sync
// policy).
//
// The error is non-nil only for stream-terminating failures: a malformed
// frame (*BadFrameError), an admission refusal (*OverloadError), a wedged
// or stopped server. Per-element rejections inside otherwise-healthy
// frames do not terminate the stream; they are reported via
// FrameIngest.Err, mirroring IngestSync.
func (s *Server) IngestFrames(r io.Reader) (FrameIngest, error) {
	s.decode.start.Do(s.startDecodeStage)
	fr := stream.NewFrameReader(r)
	var res FrameIngest
	var fatal error

	// decoding: submitted to workers, awaiting done — in frame order.
	// pending: sent to the writer, awaiting reply — in frame order.
	var decoding, pending []*frameJob

	// settleOldest receives the writer's acknowledgement for the oldest
	// pending job and recycles it. Refusals of whole batches (wedge,
	// stop) terminate the stream; element-level errors accumulate.
	settleOldest := func() {
		job := pending[0]
		copy(pending, pending[1:])
		pending = pending[:len(pending)-1]
		err := <-job.reply
		if err != nil {
			if errors.Is(err, ErrWedged) || errors.Is(err, ErrStopped) {
				// The whole batch was refused, not applied; later frames
				// would meet the same refusal.
				if fatal == nil {
					fatal = err
				}
			} else {
				res.note(err)
			}
		}
		s.decode.pool.Put(job)
	}

	// sequence waits for the oldest decoding job and, if the stream is
	// still healthy, sends its batch to the writer.
	sequence := func() {
		job := decoding[0]
		copy(decoding, decoding[1:])
		decoding = decoding[:len(decoding)-1]
		select {
		case <-job.done:
		case <-s.quit:
			if fatal == nil {
				fatal = ErrStopped
			}
			// The worker may still write into the job; do not recycle.
			return
		}
		if fatal != nil {
			s.decode.pool.Put(job)
			return
		}
		if job.err != nil {
			fatal = &BadFrameError{Frame: res.Frames, Err: job.err}
			s.decode.pool.Put(job)
			return
		}
		env := envelope{
			elems:    job.batch.Elems,
			raw:      job.batch.Payload,
			rawExact: job.batch.Deduped == 0,
			reply:    job.reply,
		}
		if err := s.send(env); err != nil {
			fatal = err
			s.decode.pool.Put(job)
			return
		}
		res.Frames++
		res.Elements += len(job.batch.Elems)
		res.Deduped += job.batch.Deduped
		pending = append(pending, job)
		if len(pending) >= maxPendingFrames {
			settleOldest()
		}
	}

	for fatal == nil {
		job := s.decode.pool.Get().(*frameJob)
		err := fr.Next(&job.batch)
		if err == io.EOF {
			s.decode.pool.Put(job)
			break
		}
		if err != nil {
			s.decode.pool.Put(job)
			fatal = &BadFrameError{Frame: res.Frames + len(decoding), Err: err}
			break
		}
		select {
		case s.decode.jobs <- job:
			decoding = append(decoding, job)
		case <-s.quit:
			// Not submitted: nobody else touches the job.
			s.decode.pool.Put(job)
			fatal = ErrStopped
		}
		if fatal == nil && len(decoding) >= s.decode.inflight {
			sequence()
		}
	}
	// Join the tail: every submitted frame must be awaited (the worker
	// owns its buffers until done fires); healthy ones are still sent so
	// "accepted frame ⇒ processed" holds even at EOF.
	for len(decoding) > 0 {
		sequence()
	}
	for len(pending) > 0 {
		settleOldest()
	}
	return res, fatal
}

package stream

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"loom/internal/graph"
)

// ReaderSource decodes the graph text codec ("v <id> <label>" /
// "e <u> <v>" lines, removals as "rv <id>" / "re <u> <v>", # comments)
// incrementally from an io.Reader, yielding
// one stream element per record without materialising the graph. It is the
// ingestion path of loom-serve and of `loom partition -order file`: memory
// stays O(1) in the input size, and the consumer starts partitioning
// before the producer has finished writing.
//
// The source stops at the first malformed line; Err reports what went
// wrong (nil at clean EOF). Note that edges referencing vertices the
// consumer has not seen are the consumer's concern — the codec only
// guarantees lexical shape.
type ReaderSource struct {
	sc   *bufio.Scanner
	buf  []byte // the scanner's initial buffer, kept across Reset
	seq  int
	line int
	err  error
	done bool
}

// TextBatchSize is how many records ReadBatch puts in one Batch.
const TextBatchSize = 512

// FromReader returns a ReaderSource over r.
func FromReader(r io.Reader) *ReaderSource {
	s := new(ReaderSource)
	s.Reset(r)
	return s
}

// Reset restarts s on r, reusing its line buffer.
func (s *ReaderSource) Reset(r io.Reader) {
	buf := s.buf
	if buf == nil {
		buf = make([]byte, 0, 64<<10)
	}
	*s = ReaderSource{sc: bufio.NewScanner(r), buf: buf}
	s.sc.Buffer(buf, 16<<20)
}

// Next implements Source. After ok=false, check Err.
func (s *ReaderSource) Next() (Element, bool) {
	if s.done {
		return Element{}, false
	}
	for s.sc.Scan() {
		s.line++
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		el, err := s.parseLine(line)
		if err != nil {
			s.fail(err)
			return Element{}, false
		}
		el.Seq = s.seq
		s.seq++
		return el, true
	}
	s.fail(s.sc.Err())
	return Element{}, false
}

func (s *ReaderSource) fail(err error) {
	s.done = true
	s.err = err
}

// ReadBatch fills b.Elems with the next records, up to TextBatchSize,
// numbering them across the whole stream. It returns io.EOF at a clean
// end with nothing read, and the decode error once the records before a
// malformed line have all been handed out: a batch is never cut short
// by the error it precedes.
func (s *ReaderSource) ReadBatch(b *Batch) error {
	b.Reset()
	for len(b.Elems) < TextBatchSize {
		el, ok := s.Next()
		if !ok {
			break
		}
		b.Elems = append(b.Elems, el)
	}
	switch {
	case len(b.Elems) > 0:
		return nil
	case s.err != nil:
		return s.err
	}
	return io.EOF
}

// Err returns the decode error that terminated the stream, or nil after a
// clean EOF.
func (s *ReaderSource) Err() error { return s.err }

// Elements returns how many elements have been yielded so far.
func (s *ReaderSource) Elements() int { return s.seq }

func (s *ReaderSource) parseLine(line string) (Element, error) {
	fields := strings.Fields(line)
	var el Element
	var shape string
	switch fields[0] {
	case "v":
		el.Kind, shape = VertexElement, "v <id> <label>"
	case "e":
		el.Kind, shape = EdgeElement, "e <u> <v>"
	case "rv":
		el.Kind, shape = RemoveVertexElement, "rv <id>"
	case "re":
		el.Kind, shape = RemoveEdgeElement, "re <u> <v>"
	default:
		return Element{}, fmt.Errorf("stream: line %d: unknown record %q", s.line, fields[0])
	}
	if len(fields) != strings.Count(shape, " ")+1 {
		return Element{}, fmt.Errorf("stream: line %d: want '%s', got %q", s.line, shape, line)
	}
	ids, what := fields[1:], "endpoint"
	switch el.Kind {
	case VertexElement:
		el.Label = graph.Label(fields[2])
		ids, what = fields[1:2], "vertex id"
	case RemoveVertexElement:
		what = "vertex id"
	}
	for i, f := range ids {
		id, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return Element{}, fmt.Errorf("stream: line %d: bad %s %q: %v", s.line, what, f, err)
		}
		if i == 0 {
			el.V = graph.VertexID(id)
		} else {
			el.U = graph.VertexID(id)
		}
	}
	return el, nil
}

package stream

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"loom/internal/graph"
)

func TestFromReaderDecodes(t *testing.T) {
	in := `# a comment

v 0 a
v 1 b
e 0 1
v 2 a
e 2 0
`
	src := FromReader(strings.NewReader(in))
	want := []Element{
		{Kind: VertexElement, V: 0, Label: "a", Seq: 0},
		{Kind: VertexElement, V: 1, Label: "b", Seq: 1},
		{Kind: EdgeElement, V: 0, U: 1, Seq: 2},
		{Kind: VertexElement, V: 2, Label: "a", Seq: 3},
		{Kind: EdgeElement, V: 2, U: 0, Seq: 4},
	}
	for i, w := range want {
		got, ok := src.Next()
		if !ok {
			t.Fatalf("element %d: stream ended early (err=%v)", i, src.Err())
		}
		if got != w {
			t.Fatalf("element %d = %+v, want %+v", i, got, w)
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("stream yielded extra elements")
	}
	if err := src.Err(); err != nil {
		t.Fatalf("clean EOF produced error: %v", err)
	}
	if src.Elements() != len(want) {
		t.Fatalf("Elements() = %d, want %d", src.Elements(), len(want))
	}
}

func TestFromReaderMalformed(t *testing.T) {
	for _, in := range []string{
		"v 0\n",        // missing label
		"v x a\n",      // bad id
		"e 0\n",        // missing endpoint
		"e 0 y\n",      // bad endpoint
		"w 0 1\n",      // unknown record
		"v 0 a\nq 1\n", // fails midway
	} {
		src := FromReader(strings.NewReader(in))
		for {
			if _, ok := src.Next(); !ok {
				break
			}
		}
		if src.Err() == nil {
			t.Errorf("input %q: expected a decode error", in)
		}
		// A failed source stays failed.
		if _, ok := src.Next(); ok {
			t.Errorf("input %q: Next after failure yielded an element", in)
		}
	}
}

// TestFromReaderMatchesCodec pins the incremental decoder to the batch
// codec: replaying a WriteStreamed file through FromReader rebuilds the
// graph exactly.
func TestFromReaderMatchesCodec(t *testing.T) {
	g := graph.Fig1Graph()
	var sb strings.Builder
	if err := graph.WriteStreamed(&sb, g); err != nil {
		t.Fatalf("write: %v", err)
	}
	rebuilt := graph.New()
	src := FromReader(strings.NewReader(sb.String()))
	for {
		el, ok := src.Next()
		if !ok {
			break
		}
		switch el.Kind {
		case VertexElement:
			rebuilt.AddVertex(el.V, el.Label)
		case EdgeElement:
			if err := rebuilt.AddEdge(el.V, el.U); err != nil {
				t.Fatalf("edge {%d,%d}: %v", el.V, el.U, err)
			}
		}
	}
	if err := src.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !g.Equal(rebuilt) {
		t.Fatalf("rebuilt graph differs:\n got %v\nwant %v", rebuilt, g)
	}
}

// TestReadBatch cuts a text body into TextBatchSize-record batches whose
// Seq numbers run across the whole body, hands out every record before a
// malformed line as a batch of its own and only then the error, and
// starts over cleanly after Reset.
func TestReadBatch(t *testing.T) {
	body := func(n, bad int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if i == bad {
				sb.WriteString("not-a-record\n")
			}
			fmt.Fprintf(&sb, "v %d a\n", i)
		}
		return sb.String()
	}
	read := func(src *ReaderSource) (sizes []int, err error) {
		var b Batch
		seq := 0
		for {
			if err = src.ReadBatch(&b); err != nil {
				return sizes, err
			}
			for _, el := range b.Elems {
				if el.Seq != seq || el.V != graph.VertexID(seq) {
					t.Fatalf("element %v at position %d", el, seq)
				}
				seq++
			}
			sizes = append(sizes, len(b.Elems))
		}
	}
	src := FromReader(strings.NewReader(body(2*TextBatchSize+6, -1)))
	sizes, err := read(src)
	if err != io.EOF || !slices.Equal(sizes, []int{TextBatchSize, TextBatchSize, 6}) {
		t.Fatalf("clean body: batches %v, end %v", sizes, err)
	}
	src.Reset(strings.NewReader(body(TextBatchSize+100, TextBatchSize+88)))
	sizes, err = read(src)
	if err == nil || err == io.EOF || !slices.Equal(sizes, []int{TextBatchSize, 88}) {
		t.Fatalf("malformed body: batches %v, end %v", sizes, err)
	}
	src.Reset(strings.NewReader(body(3, -1)))
	if sizes, err = read(src); err != io.EOF || !slices.Equal(sizes, []int{3}) {
		t.Fatalf("after Reset: batches %v, end %v", sizes, err)
	}
}

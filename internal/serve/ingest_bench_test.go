package serve

import (
	"bytes"
	"fmt"
	"testing"

	"loom/internal/checkpoint"
	"loom/internal/core"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/stream"
)

// benchElems generates the shared benchmark stream once per process.
func benchElems(b *testing.B) []stream.Element {
	b.Helper()
	g, _, _ := testGraph(b, 2000, 4, 11)
	return elementsOf(b, g)
}

func benchConfig(n int) Config {
	return Config{
		Core: core.Config{
			Partition:  partition.Config{K: 4, ExpectedVertices: n, Slack: 1.2, Seed: 1},
			WindowSize: 64,
			Threshold:  0.05,
		},
		Alphabet: []graph.Label{"a", "b", "c", "d"},
	}
}

// BenchmarkIngestText is the text front door: pre-rendered line codec,
// decoded inline and applied through IngestSync in 512-element batches,
// against a durable server at fsync none — the loom-serve HTTP handler's
// exact shape.
func BenchmarkIngestText(b *testing.B) {
	elems := benchElems(b)
	var text bytes.Buffer
	for i := range elems {
		el := &elems[i]
		if el.Kind == stream.VertexElement {
			fmt.Fprintf(&text, "v %d %s\n", el.V, el.Label)
		} else {
			fmt.Fprintf(&text, "e %d %d\n", el.V, el.U)
		}
	}
	b.SetBytes(int64(text.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Open(benchConfig(len(elems)), PersistOptions{Dir: b.TempDir(), Fsync: checkpoint.SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		src := stream.FromReader(bytes.NewReader(text.Bytes()))
		batch := make([]stream.Element, 0, 512)
		for {
			el, ok := src.Next()
			if !ok {
				break
			}
			batch = append(batch, el)
			if len(batch) == 512 {
				if err := s.IngestSync(batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if err := s.IngestSync(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := src.Err(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Stop()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(elems)), "elems/op")
}

// BenchmarkIngestFrames is the binary front door: pre-encoded 512-element
// frames decoded on the calling goroutine into IngestFrames' ring, ahead
// of the writer, and logged through the raw WAL fast path, on the same
// server shape as BenchmarkIngestText. Run it at -cpu 1,2 to see the
// overlap of decode and apply on one and on two processors.
func BenchmarkIngestFrames(b *testing.B) {
	elems := benchElems(b)
	frames := encodeFrames(b, elems, 512)
	b.SetBytes(int64(len(frames)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Open(benchConfig(len(elems)), PersistOptions{Dir: b.TempDir(), Fsync: checkpoint.SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := s.IngestFrames(bytes.NewReader(frames))
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Stop()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(elems)), "elems/op")
}

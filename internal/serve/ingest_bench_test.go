package serve

import (
	"bytes"
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

// BenchmarkIngestText is the text front door: the pre-rendered line
// codec read in 512-record batches on the calling goroutine into
// IngestText's ring, ahead of the writer, against a durable server at
// fsync none — what loom-serve's /ingest handler runs for a text body.
func BenchmarkIngestText(b *testing.B) {
	elems := benchElems(b)
	text := textOf(elems)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Open(benchConfig(len(elems)), PersistOptions{Dir: b.TempDir(), Fsync: checkpoint.SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := s.IngestText(bytes.NewReader(text))
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

// BenchmarkIngestFrames is the binary front door: pre-encoded 512-element
// frames decoded on the calling goroutine into IngestFrames' ring, ahead
// of the writer, and logged through the raw WAL fast path, on the same
// server shape as BenchmarkIngestText. Run both at -cpu 1,2 to see the
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

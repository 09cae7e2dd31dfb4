package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
	"time"

	"loom/internal/core"
	"loom/internal/graph"
	"loom/internal/motif"
	"loom/internal/partition"
	"loom/internal/signature"
	"loom/internal/stream"
)

// testWorkload is small enough for a unit test and long enough to leave
// the stream's start-up behind.
func testWorkload(locality float64, churn bool) workload {
	return workload{name: "test", vertices: 20000, locality: locality, churn: churn, text: churn}
}

func mainElements(t *testing.T, w workload, seed int64) *inputs {
	t.Helper()
	in, err := generate(w, seed, time.Second, liteRun)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	for _, w := range []workload{testWorkload(0.5, false), testWorkload(0, true)} {
		a, b, c := mainElements(t, w, 7), mainElements(t, w, 7), mainElements(t, w, 8)
		if !slices.Equal(a.elems, b.elems) {
			t.Errorf("churn=%v: the same seed gave two different streams", w.churn)
		}
		if slices.Equal(a.elems, c.elems) {
			t.Errorf("churn=%v: two seeds gave the same stream", w.churn)
		}
		for i := range a.main {
			if !slices.Equal(a.main[i].data, b.main[i].data) {
				t.Fatalf("churn=%v: the same seed encoded body %d differently", w.churn, i)
			}
		}
		if a.afterMain != b.afterMain || a.final != b.final || !slices.Equal(a.sample, b.sample) {
			t.Errorf("churn=%v: the same seed gave different ledgers or samples", w.churn)
		}
	}
}

// The element count is pinned: a change to the generator changes every
// recorded number, and must show here first.
func TestGeneratorElementCount(t *testing.T) {
	for _, tc := range []struct {
		w    workload
		want ledger
	}{
		{testWorkload(0.5, false), ledger{Elements: 172032, Vertices: 20351, Edges: 151681}},
		{testWorkload(0, true), ledger{Elements: 188416, Vertices: 16958, Edges: 80257}},
	} {
		in := mainElements(t, tc.w, 1)
		if in.afterMain != tc.want {
			t.Errorf("locality %g churn %v: ledger after the timed ingest %+v, want %+v", tc.w.locality, tc.w.churn, in.afterMain, tc.want)
		}
		if int64(len(in.elems)) != in.afterMain.Elements {
			t.Errorf("kept %d elements, ledger says %d", len(in.elems), in.afterMain.Elements)
		}
		perVertex := float64(in.afterMain.Elements) / float64(tc.w.vertices)
		if perVertex < 8 || perVertex > 9.5 {
			t.Errorf("%.2f elements per vertex, want about 8.5", perVertex)
		}
	}
}

// decodeBody reads one POST /ingest body back into elements.
func decodeBody(t *testing.T, w workload, b body) []stream.Element {
	t.Helper()
	var out []stream.Element
	if w.text {
		src := stream.FromReader(bytes.NewReader(b.data))
		for el, ok := src.Next(); ok; el, ok = src.Next() {
			out = append(out, el)
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	rd := stream.NewFrameReader(bytes.NewReader(b.data))
	var dec stream.FrameDecoder
	for {
		var batch stream.Batch
		if err := rd.Next(&batch); err != nil {
			if errors.Is(err, io.EOF) {
				return out
			}
			t.Fatal(err)
		}
		if err := dec.Decode(&batch); err != nil {
			t.Fatal(err)
		}
		out = append(out, batch.Elems...)
	}
}

// The ledger is the graph that survives the stream, at every point of a
// run where /stats is checked against it: apply every element sent so far,
// removals included, to a graph and count.
func TestLedgerIsTheSurvivingGraph(t *testing.T) {
	for _, w := range []workload{testWorkload(0.5, false), testWorkload(0, true)} {
		for seed := int64(1); seed <= 4; seed++ {
			in, err := generate(w, seed, 2*time.Second, fullRun)
			if err != nil {
				t.Fatal(err)
			}
			g, sent := graph.New(), 0
			apply := func(stage string, bodies []body, want ledger, alive []bool) {
				for _, b := range bodies {
					elems := decodeBody(t, w, b)
					if len(elems) != b.elems {
						t.Fatalf("churn=%v seed %d: %s body holds %d elements, says %d", w.churn, seed, stage, len(elems), b.elems)
					}
					for _, el := range elems {
						ok := true
						switch el.Kind {
						case stream.VertexElement:
							g.AddVertex(el.V, el.Label)
						case stream.EdgeElement:
							ok = g.AddEdge(el.V, el.U) == nil
						case stream.RemoveVertexElement:
							ok = g.RemoveVertex(el.V)
						case stream.RemoveEdgeElement:
							ok = g.RemoveEdge(el.V, el.U)
						}
						if !ok {
							t.Fatalf("churn=%v seed %d: %s element %d (%v) does not apply", w.churn, seed, stage, sent, el)
						}
						sent++
					}
				}
				if got := (ledger{Elements: int64(sent), Vertices: g.NumVertices(), Edges: g.NumEdges()}); got != want {
					t.Errorf("churn=%v seed %d: after %s the surviving graph is %+v, the ledger %+v", w.churn, seed, stage, got, want)
				}
				for i, a := range alive {
					if v := in.sample[i]; g.HasVertex(graph.VertexID(v)) != a {
						t.Errorf("churn=%v seed %d: after %s sampled vertex %d is recorded alive=%v, the graph disagrees", w.churn, seed, stage, v, a)
					}
				}
			}
			apply("the timed ingest", in.main, in.afterMain, in.aliveAfterMain)
			apply("the tail", in.tail, in.afterTail, in.aliveAfterTail)
			apply("the open loop and the deltas", append(in.open, in.deltas...), in.final, nil)
		}
	}
}

// Locality is the share of same-community edges that land inside the
// window, and with it the share of edges the motif matcher sees at all.
func TestLocalitySetsBothResidentFraction(t *testing.T) {
	// core.both_resident_frac at locality 0.5: six of an arrival's 7.5
	// edges stay in its community and half of those aim inside the window,
	// where the seven candidates do not always leave three distinct ones.
	const recorded = 0.365
	for _, tc := range []struct {
		locality float64
		ok       func(frac float64) bool
	}{
		{0, func(f float64) bool { return f < 0.01 }},
		{0.5, func(f float64) bool { return math.Abs(f-recorded) <= 0.02 }},
	} {
		w := testWorkload(tc.locality, false)
		w.vertices *= 2 // the first window of a stream is all local; at 40000 vertices it is 0.6% of the edges
		in := mainElements(t, w, 1)
		trie := motif.New(signature.NewFactoryForAlphabet(alphabet[:]), motif.Options{})
		p, err := core.New(core.Config{
			Partition:     partition.Config{K: partitions, ExpectedVertices: w.vertices},
			WindowSize:    windowSize,
			DisableMotifs: true,
		}, trie)
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range in.elems {
			if err := p.Consume(el); err != nil {
				t.Fatal(err)
			}
		}
		st := p.Stats()
		frac := 1 - float64(st.EdgesDeferred)/float64(st.EdgesObserved)
		if !tc.ok(frac) {
			t.Errorf("locality %g: both-resident fraction %.4f", tc.locality, frac)
		}
	}
}

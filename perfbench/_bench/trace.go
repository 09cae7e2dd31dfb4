package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"loom/internal/checkpoint"
	"loom/internal/core"
	"loom/internal/graph"
	"loom/internal/motif"
	"loom/internal/partition"
	"loom/internal/qserve"
	"loom/internal/query"
	"loom/internal/serve"
	"loom/internal/signature"
	"loom/internal/store"
	"loom/internal/stream"
)

// The traced run is the workload at a third of its vertices: the same
// generator and seed, so its stream is a prefix of the untraced run's. A
// loom-serve child goes through the timed ingest, Pass A and the open loop
// over HTTP (the http.* and loadgen.* metrics); then the same elements are
// replayed in this process, one layer at a time, through the functions each
// package exports, with a span around every call batch. The replay is also
// the control: the child's placements, counters and query answers must equal
// what the in-process server gives for the same elements.
const (
	traceShare  = 1.0 / 3
	lookupCalls = 100000 // Where and Route calls timed per replay
	matchCalls  = 24     // matches of each hot-mix shape against the store, over its label variants
	queryReps   = 2      // repetitions of the query pools against the in-process engine
	// overheadPairs is how often the frame decode is repeated with and
	// without span recording.
	overheadPairs = 3
)

// span is one line of the span file: one call batch into one layer.
type span struct {
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Start    int64  `json:"start"`  // ns since the replay began
	End      int64  `json:"end"`    // ns since the replay began
	Parent   int    `json:"parent"` // line number (from 0) of the span that caused it, -1 for a layer's root
	Count    int    `json:"count"`  // elements, vertices or calls the span covers
}

// tracer keeps spans in memory until the replay has ended.
type tracer struct {
	clk      clock
	t0       time.Time
	workload string
	spans    []span
	off      bool // while the overhead is measured: same calls, nothing recorded
}

func (t *tracer) begin(layer, name string, parent int) int {
	if t.off {
		return -1
	}
	t.spans = append(t.spans, span{Workload: t.workload, Layer: layer, Name: name, Parent: parent, Start: int64(t.clk.since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id, count int) {
	if t.off {
		return
	}
	t.spans[id].End, t.spans[id].Count = int64(t.clk.since(t.t0)), count
}

// cost is what one layer's root span measured.
type cost struct {
	wall   time.Duration
	allocs uint64
	count  int
}

func (c cost) nsPer() float64     { return float64(c.wall.Nanoseconds()) / float64(c.count) }
func (c cost) allocsPer() float64 { return float64(c.allocs) / float64(c.count) }
func (c cost) ms() float64        { return millis(c.wall) }

// root runs fn as the root span of one layer's replay. fn gets the span's
// id, the parent of the batch spans it records, and returns how many
// elements, vertices or calls it covered.
func (t *tracer) root(layer, name string, fn func(id int) (int, error)) (cost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := t.clk.now()
	id := t.begin(layer, name, -1)
	n, err := fn(id)
	t.end(id, n)
	c := cost{wall: t.clk.since(start), count: max(n, 1)}
	runtime.ReadMemStats(&after)
	c.allocs = after.Mallocs - before.Mallocs
	if err != nil {
		err = fmt.Errorf("%s.%s: %w", layer, name, err)
	}
	return c, err
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replay holds the traced run's inputs in the shapes the layers take.
type replay struct {
	b      *bench
	t      *tracer
	w      workload
	in     *inputs
	o      *observed
	cfg    serve.Config
	chunks [][]stream.Element // the timed ingest, chunkElems at a time
	frames []byte             // the same as binary frames, back to back
	text   []byte             // the same in the text codec
	vs     values
	tally
}

// serveConfig mirrors cmd/loom-serve's flags as serveArgs sets them; the
// control checks fail if the two drift apart.
func serveConfig(w workload, in *inputs, hotmixFile string) (serve.Config, error) {
	file := ""
	if w.hotmix {
		file = hotmixFile
	}
	wl, err := query.ResolveWorkload(file, 0, alphabet[:], 1)
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{
		Core: core.Config{
			Partition:  partition.Config{K: partitions, ExpectedVertices: in.expected(), Slack: 1.2, Seed: 1},
			WindowSize: windowSize,
			Threshold:  0.05,
		},
		Workload: wl,
		Alphabet: alphabet[:],
		Drift:    serve.DriftConfig{Passes: 1, Heuristic: "loom"},
	}
	if w.barriers > 0 {
		cfg.SnapshotEveryBatches = barrierEvery(w, in)
	}
	return cfg, nil
}

// traced is the traced run of one workload.
func (b *bench) traced(out io.Writer, w workload, openLoop time.Duration, spanDir string) (values, tally, error) {
	w = w.scaled(traceShare)
	o, in, err := b.lifecycle(out, w, openLoop, liteRun)
	if err != nil {
		return nil, tally{}, err
	}
	r := &replay{b: b, w: w, in: in, o: o, vs: values{}, tally: o.tally}
	r.t = &tracer{clk: b.clk, t0: b.clk.now(), workload: w.name}
	if r.cfg, err = serveConfig(w, in, b.hotmix); err != nil {
		return nil, tally{}, err
	}
	var enc stream.FrameEncoder
	for i := 0; i < len(in.elems); i += chunkElems {
		c := in.elems[i:min(i+chunkElems, len(in.elems))]
		r.chunks = append(r.chunks, c)
		if r.frames, err = enc.AppendFrame(r.frames, c); err != nil {
			return nil, tally{}, err
		}
		r.text = appendText(r.text, c)
	}
	for _, layer := range []func() error{r.streamLayer, r.checkpointLayer, r.serveLayers} {
		if err := layer(); err != nil {
			return nil, tally{}, fmt.Errorf("%s: replay: %w", w.name, err)
		}
	}
	r.httpMetrics()
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, b.seed))
	if err := r.t.write(path); err != nil {
		return nil, tally{}, err
	}
	fmt.Fprintf(out, "# %s: %d spans in %s (self time = span - children)\n", w.name, len(r.t.spans), path)
	return r.vs, r.tally, nil
}

func (r *replay) elements() int { return len(r.in.elems) }

// batches calls fn once per chunk inside a batch span under parent.
func (r *replay) batches(layer string, parent int, fn func(chunk []stream.Element) error) (int, error) {
	for _, c := range r.chunks {
		id := r.t.begin(layer, "batch", parent)
		if err := fn(c); err != nil {
			return 0, err
		}
		r.t.end(id, len(c))
	}
	return r.elements(), nil
}

// frameDecode reads and decodes every frame of the timed ingest, one
// batch span per frame.
func (r *replay) frameDecode() (cost, error) {
	return r.t.root("stream", "frame_decode", func(id int) (int, error) {
		rd := stream.NewFrameReader(bytes.NewReader(r.frames))
		var dec stream.FrameDecoder
		var b stream.Batch
		n := 0
		for {
			sp := r.t.begin("stream", "batch", id)
			if err := rd.Next(&b); err != nil {
				r.t.end(sp, 0)
				if errors.Is(err, io.EOF) {
					return n, nil
				}
				return n, err
			}
			if err := dec.Decode(&b); err != nil {
				return n, err
			}
			r.t.end(sp, len(b.Elems))
			n += len(b.Elems)
		}
	})
}

// overhead is the share of wall time span recording adds where spans are
// densest, one per decoded frame: the same decode with recording off and
// on, in alternation so that neither side runs warmer.
func (r *replay) overhead() (float64, error) {
	var wall [2]time.Duration
	for i := 0; i < 2*overheadPairs; i++ {
		r.t.off = i%2 == 0
		c, err := r.frameDecode()
		r.t.off = false
		if err != nil {
			return 0, err
		}
		wall[i%2] += c.wall
	}
	return (wall[1] - wall[0]).Seconds() / wall[0].Seconds(), nil
}

// streamLayer replays internal/stream: both decoders and the window.
func (r *replay) streamLayer() error {
	c, err := r.frameDecode()
	if err != nil {
		return err
	}
	r.check(c.count == r.elements(), "stream: %d elements decoded from frames, %d encoded", c.count, r.elements())
	r.vs["stream.frame_decode_ns_per_elem"] = c.nsPer()
	r.vs["stream.decode_allocs_per_elem"] = c.allocsPer()
	r.vs["stream.frame_bytes_per_elem"] = float64(len(r.frames)) / float64(r.elements())
	if r.vs["trace.overhead_frac"], err = r.overhead(); err != nil {
		return err
	}

	c, err = r.t.root("stream", "text_decode", func(id int) (int, error) {
		src := stream.FromReader(bytes.NewReader(r.text))
		n := 0
		for {
			sp := r.t.begin("stream", "batch", id)
			got := 0
			for ; got < chunkElems; got++ {
				if _, ok := src.Next(); !ok {
					break
				}
			}
			r.t.end(sp, got)
			n += got
			if got < chunkElems {
				return n, src.Err()
			}
		}
	})
	if err != nil {
		return err
	}
	r.check(c.count == r.elements(), "stream: %d elements decoded from text, %d encoded", c.count, r.elements())
	r.vs["stream.text_decode_ns_per_elem"] = c.nsPer()

	// The window alone, on the adds: removals reach it through core.
	c, err = r.t.root("stream", "window", func(id int) (int, error) {
		win, err := stream.NewWindow(windowSize)
		if err != nil {
			return 0, err
		}
		return r.batches("stream", id, func(chunk []stream.Element) error {
			for _, el := range chunk {
				switch el.Kind {
				case stream.VertexElement:
					win.AddVertex(el.V, el.Label)
				case stream.EdgeElement:
					if _, err := win.AddEdge(el.V, el.U); err != nil {
						return err
					}
				}
			}
			return nil
		})
	})
	r.vs["stream.window_ns_per_elem"] = c.nsPer()
	return err
}

// checkpointLayer replays internal/checkpoint's log: appends in both
// record formats and the decode of a WAL tail at Open.
func (r *replay) checkpointLayer() error {
	var enc stream.FrameEncoder
	payloads := make([][]byte, len(r.chunks))
	for i, c := range r.chunks {
		var err error
		if payloads[i], err = enc.AppendPayload(nil, c); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp(r.b.scratch, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walBytes := 0
	c, err := r.t.root("checkpoint", "wal_append", func(id int) (int, error) {
		st, _, err := checkpoint.Open(filepath.Join(dir, "binary"), checkpoint.SyncNone)
		if err != nil {
			return 0, err
		}
		for i, p := range payloads {
			sp := r.t.begin("checkpoint", "batch", id)
			n, err := st.AppendBinary(p)
			if err != nil {
				return 0, err
			}
			walBytes += n
			r.t.end(sp, len(r.chunks[i]))
		}
		return r.elements(), st.Close()
	})
	if err != nil {
		return err
	}
	r.vs["checkpoint.wal_append_ns_per_elem"] = c.nsPer()
	r.vs["checkpoint.wal_bytes_per_elem"] = float64(walBytes) / float64(r.elements())

	c, err = r.t.root("checkpoint", "wal_replay", func(int) (int, error) {
		st, rec, err := checkpoint.Open(filepath.Join(dir, "binary"), checkpoint.SyncNone)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, record := range rec.Tail {
			n += len(record.Elems)
		}
		return n, st.Close()
	})
	if err != nil {
		return err
	}
	r.check(c.count == r.elements(), "checkpoint: %d elements replayed from the WAL, %d appended", c.count, r.elements())
	r.vs["checkpoint.wal_replay_ns_per_elem"] = c.nsPer()

	c, err = r.t.root("checkpoint", "wal_append_text", func(id int) (int, error) {
		st, _, err := checkpoint.Open(filepath.Join(dir, "text"), checkpoint.SyncNone)
		if err != nil {
			return 0, err
		}
		n, err := r.batches("checkpoint", id, func(chunk []stream.Element) error {
			_, err := st.Append(checkpoint.RecordBatch, chunk)
			return err
		})
		if err != nil {
			return 0, err
		}
		return n, st.Close()
	})
	r.vs["checkpoint.wal_append_text_ns_per_elem"] = c.nsPer()
	return err
}

// ingestChunks feeds the timed ingest through IngestSync, chunk by chunk,
// as loom-serve's text path does, and drains.
func (r *replay) ingestChunks(srv *serve.Server, layer string, parent int) (int, error) {
	n, err := r.batches(layer, parent, srv.IngestSync)
	if err != nil {
		return 0, err
	}
	return n, srv.Drain()
}

// heapInUse is the live heap after a collection.
func heapInUse() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// serveLayers replays internal/serve and everything below and beside it.
// The server without persistence gives serve.apply and, from its view,
// the graph and assignment the partition, core, checkpoint-snapshot and
// store replays run on; the durable server is the whole pipeline without
// HTTP, and the control the child is compared with.
func (r *replay) serveLayers() error {
	heap0 := heapInUse()
	var srv *serve.Server
	apply, err := r.t.root("serve", "apply", func(id int) (_ int, err error) {
		if srv, err = serve.New(r.cfg); err != nil {
			return 0, err
		}
		return r.ingestChunks(srv, "serve", id)
	})
	if err != nil {
		return err
	}
	defer srv.Stop()
	r.vs["serve.apply_ns_per_elem"] = apply.nsPer()
	r.vs["serve.apply_allocs_per_elem"] = apply.allocsPer()
	r.vs["serve.heap_bytes_per_vertex"] = (heapInUse() - heap0) / float64(srv.Stats().Vertices)

	var view *serve.View
	c, err := r.t.root("serve", "export_view", func(int) (int, error) {
		view, err = srv.ExportView()
		return 1, err
	})
	if err != nil {
		return err
	}
	r.vs["serve.export_view_ms"] = c.ms()
	if err := r.lookups(srv); err != nil {
		return err
	}
	if err := r.partitionLayer(view); err != nil {
		return err
	}
	if err := r.coreLayers(view); err != nil {
		return err
	}
	if err := r.snapshotCodec(view); err != nil {
		return err
	}
	if err := r.storeLayer(view); err != nil {
		return err
	}
	return r.pipeline()
}

// lookups times the two read paths on a quiesced server.
func (r *replay) lookups(srv *serve.Server) error {
	rng := rand.New(rand.NewSource(r.b.seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(r.w.vertices-1))
	ids := make([]graph.VertexID, lookupCalls+2)
	for i := range ids {
		ids[i] = graph.VertexID(zipf.Uint64())
	}
	c, err := r.t.root("serve", "where", func(int) (int, error) {
		for _, v := range ids[:lookupCalls] {
			srv.Where(v)
		}
		return lookupCalls, nil
	})
	r.vs["serve.where_ns"] = c.nsPer()
	if err != nil {
		return err
	}
	c, err = r.t.root("serve", "route3", func(int) (int, error) {
		for i := 0; i < lookupCalls; i++ {
			srv.Route(ids[i], ids[i+1], ids[i+2])
		}
		return lookupCalls, nil
	})
	r.vs["serve.route3_ns"] = c.nsPer()
	return err
}

// partitionLayer replays internal/partition: one LDG pass over the graph
// in arrival order, and one ReLDG pass on top of it.
func (r *replay) partitionLayer(view *serve.View) error {
	g, order, pcfg := view.Graph, view.Graph.Vertices(), r.cfg.Core.Partition
	pcfg.ExpectedVertices = len(order)
	var ldg *partition.Assignment
	c, err := r.t.root("partition", "ldg", func(int) (int, error) {
		h, err := partition.NewLDG(pcfg)
		if err != nil {
			return 0, err
		}
		ldg = partition.PartitionStream(g, order, h)
		return len(order), nil
	})
	if err != nil {
		return err
	}
	r.vs["partition.ldg_ns_per_vertex"] = c.nsPer()
	r.vs["partition.ldg_allocs_per_vertex"] = c.allocsPer()
	c, err = r.t.root("partition", "restream_pass", func(int) (int, error) {
		rs := &partition.Restreamer{
			Config:  partition.RestreamConfig{Passes: 1},
			NewPass: func(int) (partition.Streaming, error) { return partition.NewLDG(pcfg) },
		}
		_, err := rs.Run(g, order, ldg)
		return len(order), err
	})
	r.vs["partition.restream_pass_ms"] = c.ms()
	return err
}

// buildTrie captures the workload's static query workload as serve does.
func (r *replay) buildTrie() (*motif.Trie, error) {
	trie := motif.New(signature.NewFactoryForAlphabet(alphabet[:]), motif.Options{})
	if r.cfg.Workload == nil {
		return trie, nil
	}
	return trie, r.cfg.Workload.BuildTrie(trie)
}

// coreLayers replays internal/core with and without the motif matcher;
// the difference is what internal/pattern, signature and motif cost.
func (r *replay) coreLayers(view *serve.View) error {
	var trie *motif.Trie
	c, err := r.t.root("motif", "trie_build", func(int) (_ int, err error) {
		trie, err = r.buildTrie()
		return 1, err
	})
	if err != nil {
		return err
	}
	r.vs["motif.trie_build_ms"] = c.ms()

	run := func(name string, cfg core.Config) (cost, core.Stats, error) {
		var st core.Stats
		c, err := r.t.root("core", name, func(id int) (int, error) {
			p, err := core.New(cfg, trie)
			if err != nil {
				return 0, err
			}
			n, err := r.batches("core", id, func(chunk []stream.Element) error {
				for _, el := range chunk {
					if err := p.Consume(el); err != nil {
						return err
					}
				}
				return nil
			})
			p.Finish()
			st = p.Stats()
			return n, err
		})
		return c, st, err
	}
	plain := r.cfg.Core
	plain.DisableMotifs = true
	nomotif, input, err := run("nomotif", plain)
	if err != nil {
		return err
	}
	loom, st, err := run("loom", r.cfg.Core)
	if err != nil {
		return err
	}
	r.vs["core.nomotif_ns_per_elem"] = nomotif.nsPer()
	r.vs["core.loom_ns_per_elem"] = loom.nsPer()
	r.vs["core.loom_allocs_per_vertex"] = float64(loom.allocs) / float64(max(st.VerticesAssigned, 1))
	r.vs["pattern.match_ns_per_elem"] = loom.nsPer() - nomotif.nsPer()
	// The stream's locality as the plain window sees it; with motifs on, a
	// group leaves the window together and fewer edges find both ends in it.
	r.vs["core.both_resident_frac"] = 1 - float64(input.EdgesDeferred)/float64(max(input.EdgesObserved, 1))
	resident := st.EdgesObserved - st.EdgesDeferred
	r.vs["core.grouped_frac"] = float64(st.GroupedVertices) / float64(max(st.VerticesAssigned, 1))
	r.vs["pattern.matches_per_resident_edge"] = float64(st.Tracker.MatchesCreated+st.Tracker.MatchesExtended) / float64(max(resident, 1))

	c, err = r.t.root("core", "restream_loom", func(int) (int, error) {
		ccfg := r.cfg.Core
		ccfg.Partition.ExpectedVertices = view.Graph.NumVertices()
		_, err := core.Restream(view.Graph, trie, ccfg, partition.RestreamConfig{Passes: 1}, view.Graph.Vertices(), view.Assignment)
		return view.Graph.NumVertices(), err
	})
	r.vs["core.restream_loom_ms"] = c.ms()
	return err
}

// snapshotCodec replays the snapshot codec of internal/checkpoint in
// memory.
func (r *replay) snapshotCodec(view *serve.View) error {
	var buf bytes.Buffer
	c, err := r.t.root("checkpoint", "snapshot_write", func(int) (int, error) {
		return 1, checkpoint.WriteSnapshot(&buf, checkpoint.Meta{K: partitions}, view.Graph, view.Assignment)
	})
	if err != nil {
		return err
	}
	r.vs["checkpoint.snapshot_write_ms"] = c.ms()
	r.vs["checkpoint.snapshot_bytes_per_vertex"] = float64(buf.Len()) / float64(view.Graph.NumVertices())
	c, err = r.t.root("checkpoint", "snapshot_read", func(int) (int, error) {
		_, g, _, err := checkpoint.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err == nil {
			r.check(g.NumVertices() == view.Graph.NumVertices() && g.NumEdges() == view.Graph.NumEdges(),
				"checkpoint: snapshot read back %d vertices and %d edges, wrote %d and %d",
				g.NumVertices(), g.NumEdges(), view.Graph.NumVertices(), view.Graph.NumEdges())
		}
		return 1, err
	})
	r.vs["checkpoint.snapshot_read_ms"] = c.ms()
	return err
}

// storeLayer replays internal/store: the build of the sharded store and
// the hot mix against it, a fresh engine per match as qserve makes one.
func (r *replay) storeLayer(view *serve.View) error {
	var st *store.Store
	c, err := r.t.root("store", "build", func(int) (_ int, err error) {
		st, err = store.Build(view.Graph, view.Assignment)
		return 1, err
	})
	if err != nil {
		return err
	}
	r.vs["store.build_ms"] = c.ms()
	reads, matches := 0, 0
	for _, shape := range hotMix {
		patterns := make([]*graph.Graph, len(shape.variants))
		for i, spec := range shape.variants {
			if patterns[i], err = query.ParsePatternSpec(spec); err != nil {
				return err
			}
		}
		c, err := r.t.root("store", "match_"+shape.name, func(int) (int, error) {
			for call := 0; call < matchCalls; call++ {
				p := patterns[call%len(patterns)]
				eng := store.NewEngine(st)
				var n int
				var err error
				if labels, ok := query.PathLabels(p); ok {
					n, err = eng.MatchPath(labels, qserve.DefaultMatchLimit)
				} else {
					n, err = eng.MatchPattern(p, qserve.DefaultMatchLimit)
				}
				if err != nil {
					return 0, err
				}
				s := eng.Stats()
				reads, matches = reads+s.LocalReads+s.RemoteReads, matches+n
			}
			return matchCalls, nil
		})
		if err != nil {
			return err
		}
		r.vs["store.match_"+shape.name+"_us"] = c.nsPer() / 1e3
	}
	r.vs["store.reads_per_match"] = float64(reads) / float64(max(matches, 1))
	return nil
}

// pipeline replays the durable server: Open, the timed ingest in the
// workload's codec with the WAL on, then what loom-serve does around it.
// It is the parent the other layers' costs are attributed to, and the
// control: it got what the child got, so it must answer as the child did.
func (r *replay) pipeline() error {
	dir, err := os.MkdirTemp(r.b.scratch, "control-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := serve.PersistOptions{Dir: dir, Fsync: checkpoint.SyncNone}
	var srv *serve.Server
	defer func() {
		if srv != nil {
			srv.Abort()
		}
	}()
	c, err := r.t.root("serve", "pipeline", func(id int) (int, error) {
		if srv, err = serve.Open(r.cfg, opts); err != nil {
			return 0, err
		}
		if r.w.text {
			return r.ingestChunks(srv, "serve", id)
		}
		res, err := srv.IngestFrames(bytes.NewReader(r.frames))
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			return 0, err
		}
		return res.Elements, srv.Drain()
	})
	if err != nil {
		return err
	}
	pipeline := c.nsPer()
	r.vs["serve.pipeline_ns_per_elem"] = pipeline
	r.vs["http.ingest_ns_per_elem"] = float64(r.o.ingestWall.Nanoseconds()) / float64(r.o.ingested)

	// The control checks.
	got, want := srv.Stats(), r.o.afterMain
	r.check(got.Ingested == want.Ingested && got.Vertices == want.Vertices && got.Edges == want.Edges &&
		got.CutEdges == want.CutEdges && slices.Equal(got.Sizes, want.Sizes),
		"control: in-process stats %+v, loom-serve's %+v", got, want)
	same := 0
	for i, v := range r.in.sample {
		p, ok := srv.Where(graph.VertexID(v))
		if a := r.o.placesAfterMain[i]; a.Assigned == ok && a.Partition == int(p) {
			same++
		}
	}
	r.check(same == len(r.in.sample), "control: %d of %d sampled placements equal loom-serve's", same, len(r.in.sample))

	qe := qserve.New(srv, qserve.Options{})
	c, err = r.t.root("qserve", "refresh", func(int) (int, error) { return 1, qe.Refresh() })
	if err != nil {
		return err
	}
	r.vs["qserve.refresh_ms"] = c.ms()
	// Every spec the child answered in Pass A, and the cycles: the same
	// matches and the same messages, or one of the two servers is wrong.
	ask := func(pool []string, child pass) (cost, int, error) {
		msgs := 0
		c, err := r.t.root("qserve", "query", func(int) (int, error) {
			for rep := 0; rep < queryReps; rep++ {
				for i, spec := range pool {
					resp, err := qe.Query(qserve.Request{Spec: spec})
					if err != nil {
						return 0, err
					}
					if rep == 0 {
						a := child.answers[i]
						got := queryAnswer{Matches: resp.Matches, Messages: resp.Messages, LocalReads: resp.LocalReads, RemoteReads: resp.RemoteReads}
						r.check(got == a, "control: %q answered %+v in process, %+v over HTTP", spec, got, a)
						msgs += resp.Messages
					}
				}
			}
			return queryReps * len(pool), nil
		})
		return c, msgs, err
	}
	c, msgs, err := ask(pathStarPool, r.o.passA)
	if err != nil {
		return err
	}
	r.vs["qserve.msgs_per_query"] = float64(msgs) / float64(len(pathStarPool))
	r.vs["qserve.query_us"] = c.nsPer() / 1e3
	if _, msgs, err = ask(cyclePool, r.o.cyclesA); err != nil {
		return err
	}
	r.vs["qserve.msgs_per_cycle_query"] = float64(msgs) / float64(len(cyclePool))
	c, err = r.t.root("query", "parse_spec", func(int) (int, error) {
		for _, spec := range pathStarPool {
			if _, err := query.ParsePatternSpec(spec); err != nil {
				return 0, err
			}
		}
		return len(pathStarPool), nil
	})
	if err != nil {
		return err
	}
	r.vs["query.parse_spec_us"] = c.nsPer() / 1e3

	c, err = r.t.root("serve", "checkpoint", func(int) (int, error) { return 1, srv.Checkpoint() })
	if err != nil {
		return err
	}
	r.vs["serve.checkpoint_ms"] = c.ms()
	// What the other layers' replays account for of the pipeline: decode
	// and log, the server without persistence, and the periodic barriers.
	attributed := r.vs["stream.frame_decode_ns_per_elem"] + r.vs["checkpoint.wal_append_ns_per_elem"]
	if r.w.text {
		attributed = r.vs["checkpoint.wal_append_text_ns_per_elem"] // text is decoded by the HTTP handler, before the pipeline
	}
	// A barrier costs in proportion to the graph it snapshots, and the
	// i-th of b evenly spaced barriers sees i/(b+0.5) of the final graph.
	b := float64(r.w.barriers)
	barriers := b * (b + 1) / 2 / (b + 0.5) * float64(c.wall.Nanoseconds())
	attributed += r.vs["serve.apply_ns_per_elem"] + barriers/float64(r.elements())
	r.vs["trace.attributed_frac"] = attributed / pipeline
	before := srv.Stats()
	srv.Abort()
	c, err = r.t.root("serve", "open_recover", func(int) (int, error) {
		srv, err = serve.Open(r.cfg, opts)
		return 1, err
	})
	if err != nil {
		return err
	}
	r.vs["serve.open_recover_ms"] = c.ms()
	after := srv.Stats()
	r.check(after.Ingested == before.Ingested && after.CutEdges == before.CutEdges && slices.Equal(after.Sizes, before.Sizes),
		"control: stats after Open %+v, before Abort %+v", after, before)
	c, err = r.t.root("serve", "restream", func(int) (int, error) { return 1, srv.Restream() })
	r.vs["serve.restream_ms"] = c.ms()
	after = srv.Stats()
	r.vs["serve.restreamed_cut_fraction"], r.vs["serve.restreamed_imbalance"] = after.CutFraction, after.Imbalance
	return err
}

// httpMetrics folds what the generator saw of the child into the http.*
// and loadgen.* diagnostics: tails and sample counts that are too noisy on
// two shared cores to be end-to-end metrics.
func (r *replay) httpMetrics() {
	o := r.o
	var late []time.Duration
	for _, s := range o.open {
		late = append(late, s.late)
	}
	placeIn, pathIn := o.latencies(classPlace, restreaming), o.latencies(classQueryPath, restreaming)
	for name, v := range map[string]float64{
		"http.ingest_ack_p50_ms":                 millis(median(o.acks)),
		"http.ingest_ack_p99_ms":                 millis(quantile(o.acks, 0.99)),
		"http.place_p50_us":                      micros(median(o.latencies(classPlace, quiet))),
		"http.place_p99_us":                      micros(quantile(o.latencies(classPlace, quiet), 0.99)),
		"http.place_samples":                     float64(len(o.latencies(classPlace, quiet))),
		"http.route_p50_us":                      micros(median(o.latencies(classRoute, quiet))),
		"http.route_p99_us":                      micros(quantile(o.latencies(classRoute, quiet), 0.99)),
		"http.query_path_p50_ms":                 millis(median(o.latencies(classQueryPath, quiet))),
		"http.query_path_p99_ms":                 millis(quantile(o.latencies(classQueryPath, quiet), 0.99)),
		"http.query_path_samples":                float64(len(o.latencies(classQueryPath, quiet))),
		"http.query_cycle_p50_ms":                millis(median(o.latencies(classQueryCycle, quiet))),
		"http.query_cycle_p99_ms":                millis(quantile(o.latencies(classQueryCycle, quiet), 0.99)),
		"http.query_cycle_samples":               float64(len(o.latencies(classQueryCycle, quiet))),
		"http.place_p99_during_restream_us":      micros(quantile(placeIn, 0.99)),
		"http.query_path_p50_during_restream_ms": millis(median(pathIn)),
		"http.during_restream_samples":           float64(len(placeIn) + len(pathIn)),
		"loadgen.late_p99_ms":                    millis(quantile(late, 0.99)),
		"loadgen.sent":                           float64(len(o.open)),
	} {
		r.vs[name] = v
	}
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"loom/internal/stream"
)

// workload is one set of inputs. Every workload runs the same lifecycle
// (ingest, three crash recoveries, queries, open-loop traffic, refreshes,
// a restream) because the benchmark contract reports every end-to-end
// metric on every workload; what differs is the stream, the codec, the
// server's static workload and how the run's seconds are split, and with
// them the layer that does most of the work.
type workload struct {
	name string
	why  string

	vertices  int     // arrivals in the timed ingest phase
	locality  float64 // share of same-community edges that are window-local
	hotmix    bool    // serve with -workload-file testdata/hotmix.txt, else -workload 0
	text      bool    // text codec, else binary frames
	churn     bool    // splice 4% rv (half re-added at once) and 4% re
	barriers  int     // periodic checkpoint barriers inside the timed ingest phase
	passReps  int     // repetitions of the path and star pool in Pass A
	openShare float64 // share of -seconds spent in the open loop
}

var workloads = []workload{
	{
		name:     "ingest-plain",
		why:      "n=250000, locality 0, -workload 0, binary frames: decode, dedup, ident, LDG scoring and the WAL do all the work and pattern/motif/signature none, so a LOOM-path optimisation must leave it unmoved",
		vertices: 250000, passReps: 16, openShare: 0.3,
	},
	{
		name:     "ingest-loom",
		why:      "n=150000, locality 0.5, hot-mix workload file, -window 256: half the same-community edges are window-local, so pattern.Tracker, signature, motif and core.assignEvicted take most of the writer's time",
		vertices: 150000, locality: 0.5, hotmix: true, passReps: 30, openShare: 0.3,
	},
	{
		name:     "churn-durable",
		why:      "n=200000, locality 0, text codec, 4% rv and 4% re spliced in, six checkpoint barriers during ingest: text decode, removals, text WAL records, drain barriers, snapshot plus tail replay",
		vertices: 200000, text: true, churn: true, barriers: 6, passReps: 24, openShare: 0.3,
	},
	{
		name:     "serve-mixed",
		why:      "n=100000, locality 0.5, hot-mix workload file, half the run in the open loop: reads beside writes on serve, and the workload where store and qserve do most of the work",
		vertices: 100000, locality: 0.5, hotmix: true, passReps: 40, openShare: 0.5,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the workload's stream and repetition counts; the smoke
// test and the traced run use it.
func (w workload) scaled(f float64) workload {
	w.vertices = max(2*windowSize, int(float64(w.vertices)*f))
	w.passReps = max(2, int(float64(w.passReps)*f))
	return w
}

// The hot mix: the four heaviest shapes of testdata/hotmix.txt, with
// their weights there as shares of the open loop's query traffic. The
// benchmark sends each shape under every assignment of distinct labels,
// not only the file's a b c: loom-serve caps a query at 200 matches, so
// one query reads a few hundred vertices at the head of each shard, and
// what a single spec costs there differs by half between two seeds. The
// mean over a shape's label variants differs by a tenth.
var hotMix = [...]struct {
	name     string
	share    int // of 20
	variants []string
}{
	{name: "path2", share: 8},
	{name: "path3", share: 5},
	{name: "star3", share: 5},
	{name: "cycle3", share: 2},
}

// cycleShape is the index of the cycle in hotMix. It reads fifty times
// the vertices the others read before it has its 200 matches, and how
// many depends on where the stream's first triangles fell: its cost
// differs by a quarter between seeds under any averaging, so it loads the
// open loop but no end-to-end metric is taken from it.
const cycleShape = 3

// pathStarPool and cyclePool list the query specs the passes send.
var pathStarPool, cyclePool []string

func init() {
	for _, x := range alphabet {
		for _, y := range alphabet {
			if x == y {
				continue
			}
			hotMix[0].variants = append(hotMix[0].variants, fmt.Sprintf("path %s %s", x, y))
			hotMix[1].variants = append(hotMix[1].variants, fmt.Sprintf("path %s %s %s", y, x, y))
			for _, z := range alphabet {
				if z == x || z <= y {
					continue
				}
				hotMix[2].variants = append(hotMix[2].variants, fmt.Sprintf("star %s %s %s", x, y, z))
				if x < y {
					hotMix[3].variants = append(hotMix[3].variants, fmt.Sprintf("cycle %s %s %s", x, y, z))
				}
			}
		}
	}
	for i, q := range hotMix {
		if i == cycleShape {
			cyclePool = q.variants
		} else {
			pathStarPool = append(pathStarPool, q.variants...)
		}
	}
}

// Open-loop rates, requests per second.
const (
	placeRate  = 320
	routeRate  = 40
	queryRate  = 40
	ingestRate = 5

	openIngestChunks = 4 // 2048 elements per open-loop ingest
	bodyChunks       = 8 // 4096 elements per closed-loop ingest and per refresh delta
	deltaRounds      = 3
	tailShare        = 20 // the WAL tail a recovery replays is 1/20 of the timed ingest
	passBReps        = 2  // Pass B is read for its message counts, which repeat exactly
	placeSample      = 1000
	minOpenLoop      = time.Second / 2
)

// runMode says how much of the lifecycle a run goes through.
type runMode int

const (
	// fullRun is the untraced run: every phase, every end-to-end metric.
	fullRun runMode = iota
	// liteRun is the HTTP half of the traced run: one set-up, the timed
	// ingest, Pass A and the open loop, whose answers and latencies the
	// in-process replay is compared with. It keeps the stream's elements.
	liteRun
)

// body is one POST /ingest request.
type body struct {
	data  []byte
	elems int
}

// class names what an open-loop request measures.
type class uint8

const (
	classPlace class = iota
	classRoute
	classQueryPath // the two paths and the star
	classQueryCycle
	classIngest
	classRestream
)

// request is one entry of the open loop's schedule.
type request struct {
	due   time.Duration // from the start of the loop
	class class
	path  string
	body  []byte
}

// inputs is everything a run sends, generated from the seed and held in
// memory before the first timed request.
type inputs struct {
	main      []body // the timed ingest phase
	afterMain ledger
	tail      []body // sent after a checkpoint: the WAL tail a recovery replays
	afterTail ledger
	open      []body // open-loop ingests, continuing the stream
	deltas    []body // one per quiesced refresh round
	final     ledger

	openLoop time.Duration
	schedule [2][]request // one timeline per connection
	// sample are the vertices whose placement is checked, with whether
	// each was alive at the two points of the stream it is checked at.
	sample         []int
	aliveAfterMain []bool
	aliveAfterTail []bool

	elems []stream.Element // the main phase again, kept only by a liteRun for the replay
}

// expected is loom-serve's -expected: four fifths of the vertices that
// survive the timed ingest. With the default slack of 1.2 that makes eight
// partitions' capacity just short of the graph, so every partition is full
// when the queries start. Planned for the whole stream, LDG fills six or
// seven partitions to capacity and leaves the last ones nearly empty, a
// different one with every seed; a query scans the whole label map of
// shard 0 for its anchors before it matches anything, so its latency was
// ten times lower on the seeds that left shard 0 empty.
func (in *inputs) expected() int { return in.afterMain.Vertices * 4 / 5 }

func contentType(w workload) string {
	if w.text {
		return "text/plain"
	}
	return stream.BinaryContentType
}

// generate builds a run's inputs. The same seed gives the same inputs.
func generate(w workload, seed int64, openLoop time.Duration, mode runMode) (*inputs, error) {
	g := newGenerator(w.locality, w.churn, seed)
	in := &inputs{openLoop: openLoop}
	r := rand.New(rand.NewSource(seed ^ 0x10ad))
	in.sample = make([]int, placeSample)
	for i := range in.sample {
		in.sample[i] = r.Intn(w.vertices)
	}
	sampleAlive := func() []bool {
		out := make([]bool, len(in.sample))
		for i, v := range in.sample {
			out[i] = g.alive(v)
		}
		return out
	}
	var enc stream.FrameEncoder
	buf := make([]stream.Element, 0, chunkElems)
	var encErr error
	keepElems := mode == liteRun
	next := func(chunks int) body {
		var b body
		for c := 0; c < chunks; c++ {
			buf = g.chunk(buf)
			if w.text {
				b.data = appendText(b.data, buf)
			} else if b.data, encErr = enc.AppendFrame(b.data, buf); encErr != nil {
				return b
			}
			b.elems += len(buf)
			if keepElems {
				in.elems = append(in.elems, buf...)
			}
		}
		return b
	}
	for g.arrived < w.vertices && encErr == nil {
		in.main = append(in.main, next(bodyChunks))
	}
	in.afterMain, in.aliveAfterMain = g.led, sampleAlive()
	keepElems = false
	if mode == fullRun {
		for i := 0; i < max(1, len(in.main)/tailShare); i++ {
			in.tail = append(in.tail, next(bodyChunks))
		}
	}
	in.afterTail, in.aliveAfterTail = g.led, sampleAlive()
	for i := 0; i < int(openLoop.Seconds()*ingestRate); i++ {
		in.open = append(in.open, next(openIngestChunks))
	}
	if mode == fullRun {
		for i := 0; i < deltaRounds; i++ {
			in.deltas = append(in.deltas, next(bodyChunks))
		}
	}
	if encErr != nil {
		return nil, encErr
	}
	in.final = g.led

	in.schedule = schedule(r, w, in)
	return in, nil
}

// schedule lays out the open loop: evenly spaced requests per class at
// the fixed rates above, Zipf-1.1 vertex ids for the lookups, the hot mix's
// shapes in a seeded order and under seeded labels for the queries.
// Connection 0 carries the lookups, connection 1 the queries, the ingests
// and, half way, the restream.
func schedule(r *rand.Rand, w workload, in *inputs) [2][]request {
	secs := in.openLoop.Seconds()
	zipf := rand.NewZipf(r, 1.1, 1, uint64(w.vertices-1))
	every := func(rate float64, phase float64, add func(i int, due time.Duration)) {
		for i := 0; i < int(secs*rate); i++ {
			add(i, time.Duration((float64(i)+phase)/rate*float64(time.Second)))
		}
	}
	var lookups, writes []request
	every(placeRate, 0, func(_ int, due time.Duration) {
		lookups = append(lookups, request{due: due, class: classPlace, path: fmt.Sprintf("/place/%d", zipf.Uint64())})
	})
	every(routeRate, 0.5, func(_ int, due time.Duration) {
		lookups = append(lookups, request{due: due, class: classRoute,
			path: fmt.Sprintf("/route?v=%d&v=%d&v=%d", zipf.Uint64(), zipf.Uint64(), zipf.Uint64())})
	})
	var mix []int
	for i, q := range hotMix {
		for n := 0; n < q.share; n++ {
			mix = append(mix, i)
		}
	}
	every(queryRate, 0, func(i int, due time.Duration) {
		if i%len(mix) == 0 {
			r.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
		}
		q := mix[i%len(mix)]
		c := classQueryPath
		if q == cycleShape {
			c = classQueryCycle
		}
		spec := hotMix[q].variants[r.Intn(len(hotMix[q].variants))]
		writes = append(writes, request{due: due, class: c, path: "/query", body: []byte(spec)})
	})
	every(ingestRate, 0.5, func(i int, due time.Duration) {
		writes = append(writes, request{due: due, class: classIngest, path: "/ingest", body: in.open[i].data})
	})
	writes = append(writes, request{due: in.openLoop / 2, class: classRestream, path: "/restream"})
	return [2][]request{byDue(lookups), byDue(writes)}
}

// byDue merges the per-class lists of one connection into a timeline.
func byDue(rs []request) []request {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].due < rs[j].due })
	return rs
}

// barrierEvery turns a number of checkpoint barriers wanted inside the
// main phase into loom-serve's -snapshot-every-batches.
func barrierEvery(w workload, in *inputs) int {
	batches := len(in.main) * bodyChunks
	return int(math.Ceil(float64(batches) / (float64(w.barriers) + 0.5)))
}

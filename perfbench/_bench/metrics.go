package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
)

// metric describes one number the benchmark reports. BENCHMARK.json lists
// the same names, units and directions; a test keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share it may worsen by
	// moves says which end-to-end metric, on which workload, a change to
	// this layer metric should move (per-layer only).
	moves string
}

// The end-to-end metrics: what a user of loom-serve sees. Every workload
// reports every one of them. A bound is three times the widest spread
// (quartile distance over median, ten seeds) seen on any workload when the
// benchmark was defined, where 0.25, the most the contract allows, leaves
// room for that; BENCHMARK.md has the table.
var endToEndMetrics = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ingest_eps", unit: "elements/s", better: "higher", bound: 0.20},
	{name: "wal_bytes_per_elem", unit: "B", better: "lower", bound: 0.01},
	{name: "cut_fraction", unit: "ratio", better: "lower", bound: 0.25},
	{name: "imbalance", unit: "ratio", better: "lower", bound: 0.05},
	{name: "rss_mb", unit: "MiB", better: "lower", bound: 0.25},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.20},
	{name: "query_path_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "query_qps", unit: "queries/s", better: "higher", bound: 0.25},
	{name: "msgs_per_read", unit: "ratio", better: "lower", bound: 0.25},
	{name: "msgs_per_read_restreamed", unit: "ratio", better: "lower", bound: 0.25},
	{name: "refresh_s", unit: "s", better: "lower", bound: 0.25},
	{name: "restream_s", unit: "s", better: "lower", bound: 0.25},
}

// The per-layer metrics of the traced run, named after the package they
// measure. They have no bound: they say where an end-to-end change came
// from.
var perLayerMetrics = []metric{
	{name: "stream.frame_decode_ns_per_elem", unit: "ns", better: "lower", moves: "ingest_eps on ingest-plain; next to nothing on ingest-loom"},
	{name: "stream.decode_allocs_per_elem", unit: "count", better: "lower", moves: "ingest_eps and rss_mb on ingest-plain"},
	{name: "stream.frame_bytes_per_elem", unit: "B", better: "lower", moves: "wal_bytes_per_elem on the binary workloads: the WAL stores frame payloads verbatim"},
	{name: "stream.text_decode_ns_per_elem", unit: "ns", better: "lower", moves: "ingest_eps on churn-durable only"},
	{name: "stream.window_ns_per_elem", unit: "ns", better: "lower", moves: "ingest_eps on every workload"},
	{name: "checkpoint.wal_append_ns_per_elem", unit: "ns", better: "lower", moves: "ingest_eps on ingest-plain; next to nothing on ingest-loom"},
	{name: "checkpoint.wal_append_text_ns_per_elem", unit: "ns", better: "lower", moves: "ingest_eps on churn-durable"},
	{name: "checkpoint.wal_bytes_per_elem", unit: "B", better: "lower", moves: "wal_bytes_per_elem on the binary workloads"},
	{name: "checkpoint.wal_replay_ns_per_elem", unit: "ns", better: "lower", moves: "recover_s on every workload, through the WAL tail"},
	{name: "checkpoint.snapshot_write_ms", unit: "ms", better: "lower", moves: "ingest_eps on churn-durable through its six barriers; restream_s"},
	{name: "checkpoint.snapshot_read_ms", unit: "ms", better: "lower", moves: "recover_s on every workload"},
	{name: "checkpoint.snapshot_bytes_per_vertex", unit: "B", better: "lower", moves: "recover_s on every workload"},
	{name: "partition.ldg_ns_per_vertex", unit: "ns", better: "lower", moves: "ingest_eps on ingest-plain and churn-durable"},
	{name: "partition.ldg_allocs_per_vertex", unit: "count", better: "lower", moves: "ingest_eps on ingest-plain and churn-durable"},
	{name: "partition.restream_pass_ms", unit: "ms", better: "lower", moves: "nothing today: loom-serve restreams with the loom heuristic, this is the floor under core.restream_loom_ms"},
	{name: "motif.trie_build_ms", unit: "ms", better: "lower", moves: "setup_s and restream_s on ingest-loom and serve-mixed"},
	{name: "core.nomotif_ns_per_elem", unit: "ns", better: "lower", moves: "ingest_eps on every workload"},
	{name: "core.loom_ns_per_elem", unit: "ns", better: "lower", moves: "ingest_eps on ingest-loom and serve-mixed; equals core.nomotif on the other two"},
	{name: "core.loom_allocs_per_vertex", unit: "count", better: "lower", moves: "ingest_eps and rss_mb on ingest-loom and serve-mixed"},
	{name: "pattern.match_ns_per_elem", unit: "ns", better: "lower", moves: "derived, core.loom - core.nomotif: ingest_eps on ingest-loom and serve-mixed, about 0 on ingest-plain and churn-durable"},
	{name: "core.both_resident_frac", unit: "ratio", better: "higher", moves: "nothing: an input property, it shows the stream's locality took effect"},
	{name: "core.grouped_frac", unit: "ratio", better: "higher", moves: "msgs_per_read and cut_fraction on ingest-loom and serve-mixed"},
	{name: "pattern.matches_per_resident_edge", unit: "ratio", better: "lower", moves: "ingest_eps on ingest-loom and serve-mixed: matcher work per edge that can match"},
	{name: "core.restream_loom_ms", unit: "ms", better: "lower", moves: "restream_s on every workload"},
	{name: "serve.apply_ns_per_elem", unit: "ns", better: "lower", moves: "ingest_eps on every workload; self time = minus core.loom"},
	{name: "serve.apply_allocs_per_elem", unit: "count", better: "lower", moves: "ingest_eps and rss_mb on every workload, most on churn-durable"},
	{name: "serve.pipeline_ns_per_elem", unit: "ns", better: "lower", moves: "ingest_eps on every workload: the durable server without HTTP, parent of trace.attributed_frac"},
	{name: "serve.where_ns", unit: "ns", better: "lower", moves: "no visible move of http.place_p50_us predicted: HTTP is a thousand times this"},
	{name: "serve.route3_ns", unit: "ns", better: "lower", moves: "no visible move of http.route_p50_us predicted"},
	{name: "serve.export_view_ms", unit: "ms", better: "lower", moves: "refresh_s on every workload"},
	{name: "serve.checkpoint_ms", unit: "ms", better: "lower", moves: "ingest_eps on churn-durable; recover_s set-up"},
	{name: "serve.restream_ms", unit: "ms", better: "lower", moves: "restream_s on every workload"},
	{name: "serve.open_recover_ms", unit: "ms", better: "lower", moves: "recover_s on every workload"},
	{name: "serve.heap_bytes_per_vertex", unit: "B", better: "lower", moves: "rss_mb on every workload"},
	{name: "store.build_ms", unit: "ms", better: "lower", moves: "refresh_s on every workload"},
	{name: "store.match_path2_us", unit: "us", better: "lower", moves: "query_path_p50_ms and query_qps on every workload"},
	{name: "store.match_path3_us", unit: "us", better: "lower", moves: "query_path_p50_ms and query_qps on every workload"},
	{name: "store.match_star3_us", unit: "us", better: "lower", moves: "query_path_p50_ms and query_qps on every workload"},
	{name: "store.match_cycle3_us", unit: "us", better: "lower", moves: "http.query_cycle_p50_ms on every workload"},
	{name: "store.reads_per_match", unit: "ratio", better: "lower", moves: "query_qps on every workload: vertex reads per match returned"},
	{name: "qserve.query_us", unit: "us", better: "lower", moves: "query_path_p50_ms and query_qps on every workload: Engine.Query over the path and star specs, the store match included"},
	{name: "query.parse_spec_us", unit: "us", better: "lower", moves: "query_path_p50_ms on every workload, barely"},
	{name: "qserve.refresh_ms", unit: "ms", better: "lower", moves: "refresh_s on every workload"},
	{name: "qserve.msgs_per_query", unit: "messages", better: "lower", moves: "msgs_per_read: its numerator over the path and star specs; differs by a quarter between seeds with the reads per query"},
	{name: "qserve.msgs_per_cycle_query", unit: "messages", better: "lower", moves: "msgs_per_read: its numerator over the cycles; differs by a quarter between seeds with the reads per query"},
	{name: "serve.restreamed_cut_fraction", unit: "ratio", better: "lower", moves: "msgs_per_read_restreamed on every workload; cut_fraction itself is the streaming pass's"},
	{name: "serve.restreamed_imbalance", unit: "ratio", better: "lower", moves: "rss_mb, barely: balance after one restream"},
	{name: "http.ingest_ack_p50_ms", unit: "ms", better: "lower", moves: "ingest_eps on every workload: one ack per 4096 elements"},
	{name: "http.ingest_ack_p99_ms", unit: "ms", better: "lower", moves: "diagnostic: barriers on churn-durable show here"},
	{name: "http.place_p50_us", unit: "us", better: "lower", moves: "diagnostic: 150 us of HTTP stack; three untraced runs in ten read 195 us on ingest-plain, so it is no end-to-end metric"},
	{name: "http.place_p99_us", unit: "us", better: "lower", moves: "diagnostic: too noisy on two cores to gate on"},
	{name: "http.place_samples", unit: "count", better: "higher", moves: "sample count of http.place_*"},
	{name: "http.route_p50_us", unit: "us", better: "lower", moves: "diagnostic: tracks http.place_p50_us"},
	{name: "http.route_p99_us", unit: "us", better: "lower", moves: "diagnostic"},
	{name: "http.query_path_p50_ms", unit: "ms", better: "lower", moves: "query_path_p50_ms at the traced run's scale"},
	{name: "http.query_path_p99_ms", unit: "ms", better: "lower", moves: "diagnostic"},
	{name: "http.query_path_samples", unit: "count", better: "higher", moves: "sample count of http.query_path_*"},
	{name: "http.query_cycle_p50_ms", unit: "ms", better: "lower", moves: "diagnostic: the cycle's cost differs by a quarter between seeds"},
	{name: "http.query_cycle_p99_ms", unit: "ms", better: "lower", moves: "diagnostic"},
	{name: "http.query_cycle_samples", unit: "count", better: "higher", moves: "sample count of http.query_cycle_*"},
	{name: "http.place_p99_during_restream_us", unit: "us", better: "lower", moves: "diagnostic: reads beside a background restream on the server's cores"},
	{name: "http.query_path_p50_during_restream_ms", unit: "ms", better: "lower", moves: "diagnostic: queries beside a background restream"},
	{name: "http.during_restream_samples", unit: "count", better: "higher", moves: "sample count of the two during-restream metrics"},
	{name: "http.ingest_ns_per_elem", unit: "ns", better: "lower", moves: "1e9/ingest_eps at the traced run's scale; what it has over serve.pipeline is HTTP"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower", moves: "nothing: how far behind schedule the open loop ran"},
	{name: "loadgen.sent", unit: "count", better: "higher", moves: "nothing: open-loop requests sent"},
	{name: "trace.attributed_frac", unit: "ratio", better: "higher", moves: "nothing: (decode + WAL append + serve.apply + barriers) / serve.pipeline"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "nothing: the frame decode with span recording against without"},
}

// values maps metric names to what was measured.
type values map[string]float64

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of ds, 0 when ds is empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[min(len(sorted)-1, int(q*float64(len(sorted))))]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// stretch says which part of the open loop's timeline a latency is from.
type stretch int

const (
	// quiet is the first half, before the background restream was due:
	// reads beside queries and ingest, the same length in every run.
	quiet stretch = iota
	// restreaming is while the background restream ran.
	restreaming
)

// latencies selects the open-loop latencies of one class in one stretch.
func (o *observed) latencies(c class, in stretch) []time.Duration {
	var out []time.Duration
	for _, s := range o.open {
		at := s.due + s.late
		if s.class == c && (in == quiet && s.due < o.restreamDue || in == restreaming && at >= o.restreamFrom && at < o.restreamTo) {
			out = append(out, s.lat)
		}
	}
	return out
}

// endToEnd folds one lifecycle into the end-to-end metrics. The open
// loop's medians are over its quiet half: how long the background restream
// of the other half runs, and how far the loop falls behind under it,
// varies from run to run, and is reported apart as http.*_during_restream.
func (o *observed) endToEnd() values {
	return values{
		"setup_s":                  seconds(median(o.setup)),
		"ingest_eps":               float64(o.ingested) / o.ingestWall.Seconds(),
		"wal_bytes_per_elem":       float64(o.afterMain.Persist.WALBytes) / float64(o.afterMain.Ingested),
		"cut_fraction":             o.afterMain.CutFraction,
		"imbalance":                o.afterMain.Imbalance,
		"rss_mb":                   o.rssMiB,
		"recover_s":                seconds(median(o.recover)),
		"query_path_p50_ms":        millis(median(o.latencies(classQueryPath, quiet))),
		"query_qps":                float64(o.passA.queries) / o.passA.wall.Seconds(),
		"msgs_per_read":            msgsPerRead(o.passA, o.cyclesA),
		"msgs_per_read_restreamed": msgsPerRead(o.passB, o.cyclesB),
		"refresh_s":                seconds(median(o.refresh)),
		"restream_s":               seconds(o.restream),
	}
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]reporting `json:"metrics"`
}

type reporting struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of table by name with its unit, then the
// result line.
func report(out io.Writer, w workload, table []metric, vs values, t tally) error {
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]reporting{}}
	for _, m := range table {
		v, ok := vs[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.name, m.name)
		}
		fmt.Fprintf(out, "%-14s %-42s %14.4f %s\n", w.name, m.name, v, m.unit)
		res.Metrics[m.name] = reporting{Value: v, Unit: m.unit}
	}
	if len(vs) != len(table) {
		return fmt.Errorf("%s: %d metrics measured, %d in the table", w.name, len(vs), len(table))
	}
	for _, n := range t.notes {
		fmt.Fprintf(out, "%-14s FAILED %s\n", w.name, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// Command bench is the LOOM benchmark: it drives a real loom-serve child
// process over loopback HTTP through four workloads and prints the
// end-to-end metrics BENCHMARK.json names; with -trace 1 it also replays
// the same inputs in process, layer by layer, and prints the per-layer
// metrics instead. See ../BENCHMARK.md.
//
// Usage (from the root of the checkout; run.sh builds this program and
// loom-serve into .bench_build first):
//
//	bash perfbench/run.sh --workload ingest-loom --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare parent.jsonl change.jsonl
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	clk := clock{now: time.Now, sleep: preciseSleep}
	if err := run(clk, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// preciseSleep is the open loop's timer. time.Sleep on an otherwise idle
// Go process wakes through the network poller, whose timeout has
// millisecond granularity: measured here it overshoots by 0.7 ms at the
// median, five times the latency of the GET /place it schedules.
// nanosleep(2) overshoots by 0.1 ms, and the last stretch is spun.
func preciseSleep(d time.Duration) {
	const spin = 150 * time.Microsecond
	deadline := time.Now().Add(d)
	if d > spin {
		ts := syscall.NsecToTimespec(int64(d - spin))
		syscall.Nanosleep(&ts, nil) // an early wake-up only lengthens the spin
	}
	for time.Now().Before(deadline) {
	}
}

// hotmixFile is the fixed query workload ingest-loom and serve-mixed are
// served with; every run writes it next to its data directories.
//
//go:embed testdata/hotmix.txt
var hotmixFile []byte

// errIncorrect is returned after a run whose result line says
// "correct": false.
var errIncorrect = errors.New("a check failed")

func run(clk clock, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all four, one after the other)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	secs := fs.Float64("seconds", 20, "length of one run; the open loop gets the workload's share of it")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics from an in-process replay")
	scale := fs.Float64("scale", 1, "shrink every workload's stream (smoke tests)")
	root := fs.String("root", ".", "root of the checkout")
	record := fs.String("out", "", "append each run's metrics to this file, for -compare")
	compare := fs.Bool("compare", false, "compare the medians of two -out files: bench -compare parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two files")
		}
		return compareFiles(out, fs.Arg(0), fs.Arg(1))
	}
	todo := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}

	// One core for the load generator, the rest for the server.
	runtime.GOMAXPROCS(1)
	build := filepath.Join(*root, ".bench_build")
	b := &bench{clk: clk, serveBin: filepath.Join(build, "loom-serve"), seed: *seed}
	var err error
	if b.scratch, err = os.MkdirTemp(build, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(b.scratch)
	b.hotmix = filepath.Join(b.scratch, "hotmix.txt")
	if err := os.WriteFile(b.hotmix, hotmixFile, 0o644); err != nil {
		return err
	}
	// An interrupted run must not leave a child or a data directory behind.
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-interrupted
		b.abort()
		os.Exit(1)
	}()
	fmt.Fprintf(out, "# nproc=%d generator GOMAXPROCS=1 server GOMAXPROCS=%d %s seed=%d seconds=%g scale=%g trace=%d fsync=none\n",
		runtime.NumCPU(), serverProcs(), runtime.Version(), *seed, *secs, *scale, *trace)

	var failed error
	for _, w := range todo {
		w = w.scaled(*scale)
		openLoop := max(minOpenLoop, time.Duration(*secs**scale*w.openShare*float64(time.Second)))
		var (
			table = endToEndMetrics
			vs    values
			t     tally
		)
		if *trace == 1 {
			table = perLayerMetrics
			vs, t, err = b.traced(out, w, openLoop, filepath.Join(build, "trace"))
		} else {
			var o *observed
			if o, _, err = b.lifecycle(out, w, openLoop, fullRun); err == nil {
				vs, t = o.endToEnd(), o.tally
			}
		}
		if err != nil {
			return err
		}
		if err := report(out, w, table, vs, t); err != nil {
			return err
		}
		if *record != "" {
			if err := appendRecord(*record, runRecord{Workload: w.name, Seed: *seed, Trace: *trace, Metrics: vs}); err != nil {
				return err
			}
		}
		if t.failed > 0 {
			failed = errIncorrect
		}
	}
	return failed
}

// runRecord is one line of an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Metrics  values `json:"metrics"`
}

func appendRecord(path string, r runRecord) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command loom-bench regenerates every table of EXPERIMENTS.md: the
// paper's figures (F1–F3), its claims (C1–C3) and the future-work
// evaluation (E1–E11).
//
// Usage:
//
//	loom-bench                        # run everything at full size
//	loom-bench -quick                 # run everything at reduced size (seconds)
//	loom-bench -run C2,E9             # run selected experiments
//	loom-bench -list                  # list experiment IDs
//	loom-bench -seed 7                # change the global seed
//	loom-bench -chaos 50              # run 50 seeded fault-injection
//	                                  # schedules against the durable server
//	                                  # (internal/fault/chaos) and exit
//
// Performance is measured by the repository benchmark, not here: see
// perfbench/ (bash perfbench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"loom/internal/experiments"
	"loom/internal/fault/chaos"
)

func main() {
	quick := flag.Bool("quick", false, "reduced instance sizes (seconds instead of minutes)")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Int64("seed", 42, "global random seed")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned text")
	chaosSeeds := flag.Int("chaos", 0, "run this many seeded chaos fault-injection schedules and exit")
	flag.Parse()

	if *chaosSeeds > 0 {
		if err := runChaos(*seed, *chaosSeeds); err != nil {
			fmt.Fprintf(os.Stderr, "loom-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, s := range experiments.All() {
			fmt.Printf("%-4s %s\n", s.ID, s.Title)
		}
		return
	}

	selected := experiments.All()
	if *run != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*run, ",") {
			spec, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "loom-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, spec)
		}
	}

	r := &experiments.Runner{Seed: *seed, Quick: *quick, Out: os.Stderr}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	if !*csvOut {
		fmt.Printf("loom-bench: %d experiment(s), %s mode, seed %d\n\n", len(selected), mode, *seed)
	}

	failed := 0
	for _, spec := range selected {
		start := time.Now()
		tab, err := spec.Run(r)
		elapsed := time.Since(start).Round(time.Millisecond)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "loom-bench: %s FAILED after %v: %v\n", spec.ID, elapsed, err)
			continue
		}
		if *csvOut {
			fmt.Printf("## %s\n", spec.ID)
			if err := tab.RenderCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "loom-bench: render %s: %v\n", spec.ID, err)
				os.Exit(1)
			}
			fmt.Println()
			continue
		}
		if err := tab.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "loom-bench: render %s: %v\n", spec.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", spec.ID, elapsed)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "loom-bench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}

// runChaos drives n seeded fault-injection schedules (base seed onward)
// through the chaos harness and reports per-seed and aggregate activity;
// any durability violation fails the run with its seed, so it can be
// replayed with `-chaos 1 -seed <s>`.
func runChaos(base int64, n int) error {
	scratch, err := os.MkdirTemp("", "loom-chaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	fmt.Printf("loom-bench: chaos, %d schedule(s), seeds %d..%d\n", n, base, base+int64(n)-1)
	var total chaos.Report
	start := time.Now()
	for i := 0; i < n; i++ {
		s := base + int64(i)
		rep, err := chaos.Run(s, chaos.Options{Scratch: scratch})
		if err != nil {
			return fmt.Errorf("seed %d: %w (replay: loom-bench -chaos 1 -seed %d)", s, err, s)
		}
		fmt.Printf("  seed %-6d k=%d ops=%-4d injections=%-3d crashes=%-2d reanchors=%-2d restreams=%-2d unacked=%d\n",
			rep.Seed, rep.K, rep.Ops, rep.Injections, rep.Crashes, rep.Reanchors, rep.Restreams, rep.Unacked)
		total.Ops += rep.Ops
		total.Injections += rep.Injections
		total.Crashes += rep.Crashes
		total.Reanchors += rep.Reanchors
		total.Restreams += rep.Restreams
		total.Unacked += rep.Unacked
	}
	fmt.Printf("loom-bench: chaos PASS in %v: ops=%d injections=%d crashes=%d reanchors=%d restreams=%d unacked=%d — survivor matched fault-free control on every seed\n",
		time.Since(start).Round(time.Millisecond), total.Ops, total.Injections, total.Crashes, total.Reanchors, total.Restreams, total.Unacked)
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const checkoutRoot = "../.."

// benchmarkFile is BENCHMARK.json as the benchmark contract shapes it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json and the tables
// this program prints from in step, and inside the contract's limits.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(checkoutRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the contract's charset", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name("workload", w.name)
		if got := f.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table %q: %q", i, got, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}

	if len(f.EndToEnd) != len(endToEndMetrics) || len(f.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table, at most 16 allowed", len(f.EndToEnd), len(endToEndMetrics))
	}
	setup := false
	for i, m := range endToEndMetrics {
		name("end-to-end", m.name)
		got := f.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the table %+v", i, got, m)
		}
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(f.PerLayer) != len(perLayerMetrics) || len(f.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table, at most 128 allowed", len(f.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		name("per-layer", m.name)
		if got := f.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the table %+v", i, got, m)
		}
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
		// Every layer metric says what it should move, and where.
		moves := false
		for _, e := range endToEndMetrics {
			moves = moves || strings.Contains(m.moves, e.name)
		}
		if !moves && !strings.HasPrefix(m.moves, "nothing") && !strings.HasPrefix(m.moves, "diagnostic") &&
			!strings.HasPrefix(m.moves, "sample count") && !strings.Contains(m.moves, "http.") {
			t.Errorf("per-layer metric %s names no end-to-end metric it should move: %q", m.name, m.moves)
		}
	}

	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "perfbench" {
		t.Errorf("run_seconds %d, paths %v", f.RunSeconds, f.Paths)
	}
	if want := []string{"bash", "perfbench/run.sh"}; fmt.Sprint(f.Command) != fmt.Sprint(want) {
		t.Errorf("command %v, want %v", f.Command, want)
	}
}

// TestSmokeRun drives every workload at a fiftieth of its size through
// both kinds of run and checks the shape of what is printed: every metric
// of BENCHMARK.json exactly once per workload, with its unit, and the
// same metrics in the result line.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts loom-serve children; skipped in -short mode")
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(checkoutRoot)
	if err != nil {
		t.Fatal(err)
	}
	build := exec.Command("go", "build", "-o", filepath.Join(root, ".bench_build", "loom-serve"), "./cmd/loom-serve")
	build.Dir = abs
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/loom-serve: %v\n%s", err, out)
	}
	clk := clock{now: time.Now, sleep: preciseSleep}
	for trace, table := range [][]metric{endToEndMetrics, perLayerMetrics} {
		var out bytes.Buffer
		args := []string{"-root", root, "-scale", "0.02", "-seconds", "50", "-seed", "5", "-trace", fmt.Sprint(trace)}
		if err := run(clk, args, &out); err != nil {
			t.Fatalf("trace %d: %v\n%s", trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		for _, w := range workloads {
			for _, m := range table {
				n := 0
				for _, l := range lines {
					if f := strings.Fields(l); len(f) == 4 && f[0] == w.name && f[1] == m.name && f[3] == m.unit {
						n++
					}
				}
				if n != 1 {
					t.Errorf("trace %d: %s %s printed %d times with unit %s", trace, w.name, m.name, n, m.unit)
				}
			}
		}
		results := 0
		for _, l := range lines {
			if !strings.HasPrefix(l, "{") {
				continue
			}
			results++
			var res result
			if err := json.Unmarshal([]byte(l), &res); err != nil {
				t.Fatalf("trace %d: result line: %v", trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(table) {
				t.Errorf("trace %d: result correct=%v attempted=%d failed=%d with %d metrics, want %d",
					trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(table))
			}
			for _, m := range table {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("trace %d: result line has %s = %+v (present %v), want unit %s", trace, m.name, got, ok, m.unit)
				}
			}
		}
		if results != len(workloads) {
			t.Errorf("trace %d: %d result lines, want %d", trace, results, len(workloads))
		}
	}
	if left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "run-*")); len(left) > 0 {
		t.Errorf("the run left %v behind", left)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, eps ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range eps {
			vs := values{"ingest_eps": v, "setup_s": 0.5}
			if err := appendRecord(path, runRecord{Workload: "ingest-loom", Seed: 1, Metrics: vs}); err != nil {
				t.Fatal(err)
			}
		}
		// A traced run's record is not compared.
		if err := appendRecord(path, runRecord{Workload: "ingest-loom", Seed: 1, Trace: 1, Metrics: values{"ingest_eps": 1}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var bound float64
	for _, m := range endToEndMetrics {
		if m.name == "ingest_eps" {
			bound = m.bound
		}
	}
	parent := write("parent.jsonl", 400000, 390000, 410000)
	same := write("same.jsonl", 395000, 385000, 402000)
	beyond := 400000 * (1 - bound - 0.05)
	slower := write("slower.jsonl", beyond, beyond-10000, beyond+10000)
	faster := write("faster.jsonl", 800000, 810000, 790000)

	var out bytes.Buffer
	if err := run(clock{}, []string{"-compare", parent, same}, &out); err != nil {
		t.Errorf("two sets of runs of the same code: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ingest_eps") || !strings.Contains(out.String(), fmt.Sprintf("bound %4.1f%%", 100*bound)) {
		t.Errorf("comparison does not print the metric against its bound:\n%s", out.String())
	}
	if err := run(clock{}, []string{"-compare", parent, faster}, &out); err != nil {
		t.Errorf("a gain was reported as a regression: %v", err)
	}
	out.Reset()
	if err := run(clock{}, []string{"-compare", parent, slower}, &out); err == nil || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a loss of ingest_eps beyond its bound passed: %v\n%s", err, out.String())
	}
	if err := run(clock{}, []string{"-compare", parent, filepath.Join(dir, "missing.jsonl")}, &out); err == nil {
		t.Error("a missing file passed")
	}
}

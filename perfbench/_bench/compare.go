package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// readRecords loads the untraced runs of an -out file, grouped by
// workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out, sc.Err()
}

func medianOf(vs []float64) float64 {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	if n := len(vs); n%2 == 0 {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return vs[len(vs)/2]
}

// compareFiles prints, for every workload and end-to-end metric the two
// -out files share, how much worse the second file's median is than the
// first's, against the metric's bound. Any metric beyond its bound is an
// error.
func compareFiles(out io.Writer, parent, change string) error {
	a, err := readRecords(parent)
	if err != nil {
		return err
	}
	b, err := readRecords(change)
	if err != nil {
		return err
	}
	compared, beyond := 0, 0
	for _, w := range workloads {
		for _, m := range endToEndMetrics {
			pa, ch := a[w.name][m.name], b[w.name][m.name]
			if len(pa) == 0 || len(ch) == 0 {
				continue
			}
			compared++
			ma, mb := medianOf(pa), medianOf(ch)
			worse := (mb - ma) / ma
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.bound {
				verdict = "REGRESSION"
				beyond++
			}
			fmt.Fprintf(out, "%-14s %-28s %14.4f -> %14.4f %-10s (n=%d,%d) %+7.2f%% worse, bound %4.1f%%  %s\n",
				w.name, m.name, ma, mb, m.unit, len(pa), len(ch), 100*worse, 100*m.bound, verdict)
		}
	}
	switch {
	case compared == 0:
		return fmt.Errorf("%s and %s have no untraced run of the same workload", parent, change)
	case beyond > 0:
		return fmt.Errorf("%d of %d metrics are worse by more than their bound", beyond, compared)
	}
	return nil
}

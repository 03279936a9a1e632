package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadSet reads a set file into values[workload][metric], one value
// per untraced run.
func loadSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// spread is the driver's noise measure: the distance between the first
// and third quartile as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// verdict holds B against A on one metric of one workload: worse when
// B's median is worse than A's by more than the bound, unresolved when
// either set's own spread is wider than the bound, ok otherwise. diff is
// how much worse B is, as a share of A (negative is better).
func verdict(a, b []float64, m specMetric) (diff float64, v string) {
	ma, mb := median(a), median(b)
	diff = (mb - ma) / ma
	if m.Better == "higher" {
		diff = -diff
	}
	switch {
	case diff > m.Bound:
		return diff, "worse"
	case math.Max(spread(a), spread(b)) > m.Bound:
		return diff, "unresolved"
	}
	return diff, "ok"
}

// compareSets prints, per workload and end-to-end metric, both medians
// with their spreads, the difference, the bound and the verdict. It
// reports whether any cell is worse.
func compareSets(w io.Writer, specPath, pathA, pathB string) (worse bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-19s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "A median", "spread", "B median", "spread", "diff", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				return false, fmt.Errorf("%s %s: missing from a set", wl.Name, m.Name)
			}
			diff, v := verdict(xa, xb, m)
			if notApplicable(m.Name, wl.Name) {
				v = "n/a"
			}
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-13s %-19s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, median(xa), 100*spread(xa), median(xb), 100*spread(xb), 100*diff, 100*m.Bound, v)
		}
	}
	return worse, nil
}

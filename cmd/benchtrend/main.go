// Command benchtrend merges the per-PR bench artifacts
// (BENCH_chitchat.json, BENCH_nosy.json — produced by cmd/benchjson and
// tracked in the repo) into a single trajectory table, so the solver
// performance across PRs is one artifact instead of an archaeology
// exercise.
//
// By default each input file is one row. With -git, the row set is the
// first-parent commit history of the input files: every commit that
// touched any of them contributes a row with the benchmarks parsed from
// the files AS OF that commit — the cross-PR trajectory.
//
//	go run ./cmd/benchtrend -git -o BENCH_trend.md -json BENCH_trend.json \
//	    BENCH_chitchat.json BENCH_nosy.json BENCH_zoo.json
//
// With -gate <pct> (repo-relative inputs, run from the repo root), the
// tool additionally compares the working-tree numbers of a pinned set
// of benchmarks against the committed HEAD baselines and exits with
// code 3 when any of them is more than <pct> percent slower — the CI
// regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
)

// entry mirrors cmd/benchjson's per-benchmark record. Metrics carries
// the custom b.ReportMetric values (cost, resolves, improvement, …) so
// behavioral artifacts like BENCH_zoo.json merge into the trajectory,
// not just timing ones.
type entry struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	SecPerOp   float64            `json:"sec_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// report mirrors cmd/benchjson's document shape.
type report struct {
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

// source is one row of the trajectory: a file or a commit.
type source struct {
	Label      string           `json:"label"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

func main() {
	useGit := flag.Bool("git", false, "one row per first-parent commit touching the inputs (needs full clone history)")
	out := flag.String("o", "", "markdown output path (default: stdout)")
	jsonOut := flag.String("json", "", "also write the merged table as JSON to this path")
	gatePct := flag.Float64("gate", 15, "fail (exit 3) if a pinned benchmark is more than this percent slower than its HEAD baseline; negative disables")
	flag.Parse()
	files := flag.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "benchtrend: no input files (e.g. BENCH_chitchat.json BENCH_nosy.json)")
		os.Exit(2)
	}

	var sources []source
	var err error
	if *useGit {
		sources, err = gitSources(files)
	} else {
		sources, err = fileSources(files)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtrend:", err)
		os.Exit(1)
	}
	if len(sources) == 0 {
		fmt.Fprintln(os.Stderr, "benchtrend: no benchmark data found")
		os.Exit(1)
	}

	md := renderMarkdown(sources)
	if *out == "" {
		os.Stdout.WriteString(md)
	} else if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchtrend:", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(struct {
			Sources []source `json:"sources"`
		}{sources}, "", "  ")
		if err == nil {
			data = append(data, '\n')
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtrend:", err)
			os.Exit(1)
		}
	}

	if *gatePct >= 0 {
		baseline, ok := headBenchmarks(files)
		if !ok {
			fmt.Fprintln(os.Stderr, "benchtrend: no HEAD baselines readable; regression gate skipped")
			return
		}
		current := map[string]entry{}
		if wt, err := fileSources(files); err == nil {
			for _, s := range wt {
				for name, e := range s.Benchmarks {
					current[name] = e
				}
			}
		}
		violations := gate(baseline, current, gatedBenchmarks, *gatePct)
		if len(violations) == 0 {
			fmt.Fprintf(os.Stderr, "benchtrend: regression gate clean (threshold %.0f%%)\n", *gatePct)
			return
		}
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "benchtrend: REGRESSION %s: %.4gs/op vs baseline %.4gs/op (+%.1f%% > %.0f%%)\n",
				v.Name, v.Current, v.Baseline, v.Pct, *gatePct)
		}
		os.Exit(3)
	}
}

// gatedBenchmarks is the pinned regression-gate set: one representative
// per solver family whose BENCH artifact CI regenerates.
var gatedBenchmarks = []string{
	"BenchmarkChitChat",
	"BenchmarkNosyWorkers1",
	"BenchmarkNosyDenseWorkers1",
	"BenchmarkShardSolve1M",
}

// gateViolation is one pinned benchmark slower than the gate allows.
type gateViolation struct {
	Name     string
	Baseline float64 // sec/op at HEAD
	Current  float64 // sec/op in the working tree
	Pct      float64 // percent slower than baseline
}

// gate compares the current numbers of the pinned benchmarks against
// the baseline and returns the ones more than pct percent slower.
// Benchmarks absent from either side (or with a degenerate baseline)
// are skipped: the gate guards known numbers, it does not demand them.
func gate(baseline, current map[string]entry, pinned []string, pct float64) []gateViolation {
	var out []gateViolation
	for _, name := range pinned {
		base, okB := baseline[name]
		cur, okC := current[name]
		if !okB || !okC || base.SecPerOp <= 0 {
			continue
		}
		slower := (cur.SecPerOp/base.SecPerOp - 1) * 100
		if slower > pct {
			out = append(out, gateViolation{Name: name, Baseline: base.SecPerOp, Current: cur.SecPerOp, Pct: slower})
		}
	}
	return out
}

// headBenchmarks merges the HEAD-committed versions of the input files
// into one baseline map. ok is false when none of them is readable from
// git (not a repo, or all files untracked).
func headBenchmarks(files []string) (map[string]entry, bool) {
	merged := map[string]entry{}
	any := false
	for _, f := range files {
		blob, err := exec.Command("git", "show", "HEAD:"+f).Output()
		if err != nil {
			continue
		}
		var rep report
		if json.Unmarshal(blob, &rep) != nil {
			continue
		}
		any = true
		for name, e := range rep.Benchmarks {
			merged[name] = e
		}
	}
	return merged, any
}

// fileSources reads each input file as one row.
func fileSources(files []string) ([]source, error) {
	var out []source
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, source{Label: f, Benchmarks: rep.Benchmarks})
	}
	return out, nil
}

// gitSources walks the first-parent history of the input files oldest
// first and parses each file as of each commit that touched any of them.
func gitSources(files []string) ([]source, error) {
	args := append([]string{"log", "--first-parent", "--reverse",
		"--format=%H\t%h %s", "--"}, files...)
	raw, err := exec.Command("git", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("git log: %w", err)
	}
	var out []source
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		hash, label, ok := strings.Cut(line, "\t")
		if !ok {
			continue
		}
		merged := map[string]entry{}
		for _, f := range files {
			blob, err := exec.Command("git", "show", hash+":"+f).Output()
			if err != nil {
				continue // file did not exist at this commit
			}
			var rep report
			if json.Unmarshal(blob, &rep) != nil {
				continue
			}
			for name, e := range rep.Benchmarks {
				merged[name] = e
			}
		}
		if len(merged) > 0 {
			if runes := []rune(label); len(runes) > 60 {
				label = string(runes[:60]) + "…"
			}
			out = append(out, source{Label: label, Benchmarks: merged})
		}
	}
	// Append the working tree as a final row when it differs from HEAD —
	// in CI the bench steps regenerate the files before this runs, so
	// the fresh numbers become the trajectory's newest point.
	if wt, err := fileSources(files); err == nil {
		merged := map[string]entry{}
		for _, s := range wt {
			for name, e := range s.Benchmarks {
				merged[name] = e
			}
		}
		if len(out) == 0 || !sameBenchmarks(out[len(out)-1].Benchmarks, merged) {
			out = append(out, source{Label: "(working tree)", Benchmarks: merged})
		}
	}
	return out, nil
}

// sameBenchmarks reports whether two benchmark maps are identical.
// DeepEqual because entry holds a metrics map.
func sameBenchmarks(a, b map[string]entry) bool {
	return reflect.DeepEqual(a, b)
}

// renderMarkdown lays the trajectory out as one markdown table: one row
// per source, one column per benchmark (union, sorted) holding seconds
// per op, then one "bench:metric" column per reported custom metric
// (cost, resolves, …) so behavioral artifacts trend alongside timing.
func renderMarkdown(sources []source) string {
	names := map[string]bool{}
	metricCols := map[string]bool{} // "BenchmarkName:metric"
	for _, s := range sources {
		for n, e := range s.Benchmarks {
			names[n] = true
			for m := range e.Metrics {
				metricCols[n+":"+m] = true
			}
		}
	}
	cols := make([]string, 0, len(names))
	for n := range names {
		cols = append(cols, n)
	}
	sort.Strings(cols)
	mcols := make([]string, 0, len(metricCols))
	for c := range metricCols {
		mcols = append(mcols, c)
	}
	sort.Strings(mcols)

	var b strings.Builder
	b.WriteString("# Solver benchmark trajectory\n\n")
	b.WriteString("Seconds per op (plain columns) and reported metrics (bench:metric columns); blank = absent at that point.\n\n")
	b.WriteString("| source |")
	for _, c := range cols {
		fmt.Fprintf(&b, " %s |", strings.TrimPrefix(c, "Benchmark"))
	}
	for _, c := range mcols {
		fmt.Fprintf(&b, " %s |", strings.TrimPrefix(c, "Benchmark"))
	}
	b.WriteString("\n|---|")
	for i := 0; i < len(cols)+len(mcols); i++ {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, s := range sources {
		fmt.Fprintf(&b, "| %s |", strings.ReplaceAll(s.Label, "|", "\\|"))
		for _, c := range cols {
			if e, ok := s.Benchmarks[c]; ok {
				fmt.Fprintf(&b, " %.4g |", e.SecPerOp)
			} else {
				b.WriteString("  |")
			}
		}
		for _, c := range mcols {
			name, metric, _ := strings.Cut(c, ":")
			if v, ok := s.Benchmarks[name].Metrics[metric]; ok {
				fmt.Fprintf(&b, " %.4g |", v)
			} else {
				b.WriteString("  |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

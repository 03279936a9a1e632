// Command benchjson converts `go test -bench` output on stdin into a
// small JSON document, so CI can track the solver perf trajectory as
// per-PR artifacts (BENCH_chitchat.json, BENCH_nosy.json). Only
// standard-library parsing — no benchstat dependency.
//
//	go test -run '^$' -bench '^BenchmarkChitChat$' -benchtime 1x . \
//	    | go run ./cmd/benchjson -o BENCH_chitchat.json
//	go test -run '^$' -bench . -benchtime 1x . \
//	    | go run ./cmd/benchjson -filter '^BenchmarkNosy' -o BENCH_nosy.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// benchLine matches e.g. "BenchmarkNosyWorkers1-4   2   194170926 ns/op".
// The -N GOMAXPROCS suffix is folded into the bare benchmark name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)`)

// metricPair matches the trailing custom metrics a benchmark emits via
// b.ReportMetric, e.g. "  123.4 peakRSS-MB  1.8 improvement".
var metricPair = regexp.MustCompile(`([\d.eE+-]+) (\S+)`)

type entry struct {
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	SecPerOp   float64 `json:"sec_per_op"`
	// Metrics holds the benchmark's b.ReportMetric values by unit name
	// (e.g. peakRSS-MB for the sharded-solve memory ceiling).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	CPU        string           `json:"cpu,omitempty"`
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

func main() {
	filter := flag.String("filter", "", "keep only benchmarks whose name matches this regexp (default: all)")
	note := flag.String("note", "", "free-form note recorded in the JSON (e.g. what a custom metric means)")
	out := flag.String("o", "", "output path (default: stdout)")
	flag.Parse()

	var keep *regexp.Regexp
	if *filter != "" {
		var err error
		if keep, err = regexp.Compile(*filter); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad -filter:", err)
			os.Exit(2)
		}
	}

	rep := report{Note: *note, Benchmarks: map[string]entry{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if len(line) > 5 && line[:4] == "cpu:" {
			rep.CPU = line[5:]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil || (keep != nil && !keep.MatchString(m[1])) {
			continue
		}
		iters, err1 := strconv.ParseInt(m[2], 10, 64)
		ns, err2 := strconv.ParseFloat(m[3], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		e := entry{Iterations: iters, NsPerOp: ns, SecPerOp: ns / 1e9}
		for _, mm := range metricPair.FindAllStringSubmatch(m[4], -1) {
			// -benchmem's standard columns are derivable elsewhere; only
			// the benchmark's own ReportMetric units are worth recording.
			if mm[2] == "B/op" || mm[2] == "allocs/op" || mm[2] == "MB/s" {
				continue
			}
			if v, err := strconv.ParseFloat(mm[1], 64); err == nil {
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[mm[2]] = v
			}
		}
		rep.Benchmarks[m[1]] = e
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no matching benchmark lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
}

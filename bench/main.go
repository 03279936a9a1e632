// Command bench is the repo's benchmark: four round-structured
// workloads measured from outside, through the calls in seam.go.
//
//	go run ./bench -workload churn_local -seed 7 -seconds 22 -trace 0
//	go run ./bench                      # all four, end-to-end metrics
//	go run ./bench -trace 1             # all four, per-layer metrics and bench/out/trace-*.json
//	go run ./bench -compare A.jsonl B.jsonl
//
// See README.md beside this file for what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// record is one line of a set file, as -append writes it and -compare
// reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	name := flag.String("workload", "", "workload to run; empty runs all four in turn")
	seed := flag.Int64("seed", 7, "input seed (11 is kept for checking claims)")
	seconds := flag.Float64("seconds", 22, "how long a run measures; sets the number of rounds, never fewer than 5")
	trace := flag.Int("trace", 0, "1 records spans around every call into a layer and prints the per-layer metrics")
	verbose := flag.Bool("v", false, "print each round's times to standard error")
	smoke := flag.Bool("smoke", false, "run the tiny geometry the unit tests use")
	appendTo := flag.String("append", "", "also append each result to this set file, for -compare")
	compare := flag.Bool("compare", false, "compare two set files: bench -compare A.jsonl B.jsonl")
	spec := flag.String("benchmark", "BENCHMARK.json", "the bounds -compare holds the metrics to")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two set files"))
		}
		worse, err := compareSets(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	geo := fullGeometry
	if *smoke {
		geo = smokeGeometry
	}
	ok := true
	ran := 0
	for _, w := range workloads {
		if *name != "" && *name != w.name {
			continue
		}
		ran++
		o, err := runWorkload(runConfig{w: w, geo: geo, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: "bench/out", verbose: *verbose})
		if err != nil {
			fatal(err)
		}
		res := o.result()
		if *appendTo != "" {
			if err := appendRecord(*appendTo, record{w.name, *seed, *trace == 1, res}); err != nil {
				fatal(err)
			}
		}
		if *name == "" {
			fmt.Println("#", w.name)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if !ok {
		os.Exit(1)
	}
}

func appendRecord(path string, r record) error {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

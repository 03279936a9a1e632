package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
)

// metricDef names one reported metric. The tables below must agree with
// BENCHMARK.json; TestMetricNamesMatchBenchmarkJSON holds them to it.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cost_ratio", "ratio"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"stall_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"update_p99_ms", "ms"},
	{"wire_bytes_per_req", "B"},
	{"ingest_lag_p95_ms", "ms"},
}

// applies says on which workloads a metric that is not universal has a
// meaning of its own. Everywhere else the cell carries another metric
// of the same workload (see notApplicable), because the driver wants
// every end-to-end metric, non-zero, from every workload.
var applies = map[string][]string{
	"stall_p50_ms":       {"churn_local", "live_e2e"},
	"query_p99_ms":       {"serve_static", "live_e2e"},
	"update_p99_ms":      {"serve_static", "live_e2e"},
	"wire_bytes_per_req": {"serve_static", "live_e2e"},
	"ingest_lag_p95_ms":  {"live_e2e"},
}

// notApplicable reports whether metric has no meaning on workload.
func notApplicable(metric, workload string) bool {
	on, limited := applies[metric]
	if !limited {
		return false
	}
	for _, w := range on {
		if w == workload {
			return false
		}
	}
	return true
}

// result is the last line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run of one workload measured. perLayer is nil
// unless the run was traced; endToEnd is always there, but only an
// untraced run's is the benchmark's.
type outcome struct {
	attempted, failed  int
	endToEnd, perLayer map[string]float64
}

// result is the outcome as the driver reads it: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func (o outcome) result() result {
	defs, vals := endToEnd, o.endToEnd
	if o.perLayer != nil {
		defs, vals = perLayer, o.perLayer
	}
	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return res
}

// runConfig is one invocation of one workload.
type runConfig struct {
	w       workload
	geo     geometry
	seed    int64
	seconds float64
	trace   bool
	outDir  string // where a traced run writes its span file
	verbose bool   // print each round's times to standard error
}

// roundSeed derives round i's input seed. Rounds differ in their inputs
// so that a run's medians average over several graphs and traces; two
// runs with the same -seed still see exactly the same inputs.
func roundSeed(seed int64, i int) int64 { return seed*1009 + int64(i) }

func numRounds(c runConfig) int {
	return max(c.geo.minRounds, int(c.seconds/c.w.roundSeconds))
}

// runWorkload runs the rounds of one workload and reduces them to the
// metrics.
func runWorkload(c runConfig) (outcome, error) {
	n := numRounds(c)
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	// One reading before the first round and one after every round: a
	// round's factor is taken from the readings on either side of it.
	first, err := readMachine(c.geo.probe)
	if err != nil {
		return outcome{}, fmt.Errorf("machine probe: %w", err)
	}
	readings := []reading{first}
	var factors []float64
	readAfter := func(what string) error {
		after, err := readMachine(c.geo.probe)
		if err != nil {
			return fmt.Errorf("machine probe: %w", err)
		}
		f := machineFactor(readings[len(readings)-1], after)
		readings = append(readings, after)
		factors = append(factors, f)
		if c.verbose {
			fmt.Fprintf(os.Stderr, "%s %s: spin %.1f ms, ping-pong %.1f us, kernel %.1f ms, factor %.3f\n",
				c.w.name, what, after.spinMS, after.pingUS, after.kernelMS, f)
		}
		return nil
	}

	// A traced run traces every other round; the untraced ones only give
	// the work rate harness.trace_overhead_pct is taken against.
	var rounds, untraced []*round
	for i := 0; i < n; i++ {
		e := env{geo: c.geo, seed: roundSeed(c.seed, i)}
		traced := c.trace && i%2 == 1
		if traced {
			e.seam = seam{tr.thread(i)}
		}
		r, err := c.w.run(e)
		if err != nil {
			return outcome{}, fmt.Errorf("%s round %d: %w", c.w.name, i, err)
		}
		if err := readAfter(fmt.Sprintf("round %d", i)); err != nil {
			return outcome{}, err
		}
		if c.verbose {
			fmt.Fprintf(os.Stderr, "%s round %d: set-up %.3f s, timed %.3f s, %d stalls (as measured)\n",
				c.w.name, i, r.setup.Seconds(), r.timed.Seconds(), len(r.stall))
		}
		r.normalize(factors[i])
		if c.trace && !traced {
			untraced = append(untraced, r)
			continue
		}
		rounds = append(rounds, r)
	}
	if c.trace {
		probe(seam{tr.thread(n)}, c.w.name, c.geo, rounds[len(rounds)-1])
		if err := readAfter("probes"); err != nil {
			return outcome{}, err
		}
	}

	var o outcome
	for _, r := range rounds {
		o.attempted += r.attempted
		o.failed += r.failed
		for _, e := range r.errs {
			fmt.Fprintf(os.Stderr, "%s: %s\n", c.w.name, e)
		}
	}
	o.endToEnd = endToEndValues(c.w.name, rounds)
	if !c.trace {
		return o, nil
	}
	o.perLayer = perLayerValues(rounds, tr, factors)
	var spins, pings, kernels []float64
	for _, m := range readings {
		spins = append(spins, m.spinMS)
		pings = append(pings, m.pingUS)
		kernels = append(kernels, m.kernelMS)
	}
	o.perLayer["harness.calib_ms"] = median(spins)
	o.perLayer["harness.pingpong_us"] = median(pings)
	o.perLayer["harness.memkernel_ms"] = median(kernels)
	o.perLayer["harness.machine_factor"] = median(factors)
	untracedRate := median(workRates(untraced))
	o.perLayer["harness.trace_overhead_pct"] = 100 * (untracedRate - o.endToEnd["work_per_s"]) / untracedRate
	path := filepath.Join(c.outDir, "trace-"+c.w.name+".json")
	if err := tr.write(path, o.perLayer, factors); err != nil {
		return outcome{}, err
	}
	return o, nil
}

// workRates is each round's work per second of timed wall, less what
// the round marked as stalled. Only churn_local marks any, its re-solve
// stalls: how many re-solves a few thousand ops trigger is a small
// integer that swings with the seed (4 to 9 on six seeds when the
// benchmark was defined), so the rate with stalls in it cannot be held
// to any bound. The stall is gated by stall_p50_ms, the attempt count is
// exact in online.resolves and online.reverted, and the rate with stalls
// in it is reported per layer as online.ops_per_s_wall.
func workRates(rounds []*round) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, r.work/(r.timed-r.stalled).Seconds())
	}
	return out
}

func endToEndValues(workload string, rounds []*round) map[string]float64 {
	var setup, stall, lag []float64
	var op, query, update [][]float64
	var cost, hybrid, bytes, requests float64
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		op = append(op, r.op)
		query = append(query, r.query)
		update = append(update, r.update)
		stall = append(stall, r.stall...)
		lag = append(lag, r.lag...)
		cost += r.cost
		hybrid += r.hybrid
		bytes += float64(r.wireBytes)
		requests += float64(r.requests)
	}
	v := map[string]float64{
		"setup_s":     median(setup),
		"peak_rss_mb": peakRSSMB(),
		"cost_ratio":  cost / hybrid,
		"work_per_s":  median(workRates(rounds)),
		"op_p50_ms":   overRounds(op, 0.5),
		"op_p99_ms":   overRounds(op, 0.99),
		// A round has only a few stalls and a few late ops, so these two
		// are taken over the samples of all rounds together.
		"stall_p50_ms":       median(stall),
		"query_p99_ms":       overRounds(query, 0.99),
		"update_p99_ms":      overRounds(update, 0.99),
		"wire_bytes_per_req": bytes / math.Max(requests, 1),
	}
	v["ingest_lag_p95_ms"], _ = tail(lag, 0.95)
	for _, m := range endToEnd {
		if !notApplicable(m.name, workload) {
			continue
		}
		// A cell without a meaning repeats a metric that has one on this
		// workload and is held to a bound no looser than this cell's,
		// so the cell adds no gate of its own.
		if m.unit == "ms" {
			v[m.name] = v["op_p50_ms"]
		} else {
			v[m.name] = v["cost_ratio"]
		}
	}
	return v
}

// overRounds is the p-th percentile of a latency: the median over rounds
// of each round's percentile, so that a disturbance of the machine that
// spoils one or two rounds does not move it. When a round has fewer
// than minBeyond samples beyond the percentile, the samples of all
// rounds are taken together (and tail lowers p if even they are too
// few).
func overRounds(perRound [][]float64, p float64) float64 {
	var each, all []float64
	enough := true
	for _, xs := range perRound {
		all = append(all, xs...)
		enough = enough && float64(len(xs))*(1-p) >= minBeyond
		each = append(each, percentile(xs, p))
	}
	if enough {
		return median(each)
	}
	v, _ := tail(all, p)
	return v
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

package main

import (
	"math"
	"strings"
	"time"
)

// perLayer is every per-layer metric a traced run prints, on every
// workload; a workload that bypasses a layer prints 0 for it. Names are
// module.metric. Unless noted, a timing is the median over the traced
// rounds' spans of that name.
var perLayer = []metricDef{
	// Set-up layers: median over rounds of the round's total.
	{"graphgen.build_ms", "ms"},
	{"workload.rates_ms", "ms"},
	{"baseline.hybrid_ms", "ms"},
	{"scenario.generate_ms", "ms"},
	{"online.new_ms", "ms"},
	{"netstore.dial_ms", "ms"},
	// Solvers at their defaults, and on one worker (probe).
	{"chitchat.solve_ms", "ms"},
	{"nosy.solve_ms", "ms"},
	{"shard.solve_ms", "ms"},
	{"chitchat.solve_w1_ms", "ms"},
	{"nosy.solve_w1_ms", "ms"},
	{"chitchat.scale", "ratio"}, // w1 ÷ default: above 1 means the workers pay
	{"nosy.scale", "ratio"},
	{"nosy.iterations", "count"},
	{"shard.shards", "count"},
	{"partition.locality_ms", "ms"},
	{"core.validate_ms", "ms"},
	{"core.cost_ms", "ms"},
	{"chitchat.cost_ratio", "ratio"},
	{"nosy.cost_ratio", "ratio"},
	{"shard.cost_ratio", "ratio"},
	// Daemon.
	{"online.apply_plain_us", "us"},
	{"online.apply_check_ms", "ms"},
	{"online.resolve_ms", "ms"},
	{"online.resolve_solver_ms", "ms"},
	{"online.resolve_overhead_ms", "ms"},
	{"online.apply_max_ms", "ms"},
	{"online.ops_per_s_wall", "1/s"},
	{"online.resolves", "count"},
	{"online.reverted", "count"},
	{"online.accept_ratio", "ratio"},
	{"online.region_edges_mean", "count"},
	{"online.region_share", "ratio"},
	{"online.amortized", "count"},
	{"online.snapshot_ms", "ms"},
	// What the daemon is built from, driven bare (probe).
	{"incremental.add_us", "us"},
	{"incremental.remove_us", "us"},
	{"incremental.rates_us", "us"},
	{"incremental.new_ms", "ms"},
	{"incremental.rebase_ms", "ms"},
	{"graph.khop_ms", "ms"},
	{"graph.induced_ms", "ms"},
	{"refine.run_ms", "ms"},
	// Serving.
	{"netstore.query_us", "us"},
	{"netstore.update_us", "us"},
	{"netstore.msgs_per_query", "count"},
	{"netstore.msgs_per_update", "count"},
	{"netstore.bytes_per_query", "B"},
	{"netstore.bytes_per_update", "B"},
	{"netstore.retries", "count"},
	{"netstore.redials", "count"},
	{"netstore.query_us_quiet", "us"},
	{"netstore.query_us_busy", "us"},
	{"netstore.epochs", "count"},
	{"netstore.setepoch_us", "us"},
	// The same trace through the in-process tier (probe); netstore
	// minus store is transport time.
	{"store.newcluster_ms", "ms"},
	{"store.swap_ms", "ms"},
	{"store.query_us", "us"},
	{"store.update_us", "us"},
	{"store.msgs_per_req", "count"},
	// The harness itself.
	{"harness.feed_late_ms", "ms"},
	{"harness.calib_ms", "ms"},
	{"harness.pingpong_us", "us"},
	{"harness.memkernel_ms", "ms"},
	{"harness.machine_factor", "ratio"},
	{"harness.trace_overhead_pct", "%"},
}

// perRoundSpans are the span names reported as the median over rounds
// of the round's total; every other span is the median over calls.
var perRoundSpans = map[string]bool{
	"graphgen.build": true, "workload.rates": true, "baseline.hybrid": true,
	"scenario.generate": true, "online.new": true, "netstore.dial": true,
	"core.validate": true, "core.cost": true,
}

// perLayerValues reduces the traced rounds and the spans to the
// per-layer metrics. factors[i] is the machine factor of round i; span
// times are divided by their round's, as the rounds' own times already
// are.
func perLayerValues(rounds []*round, tr *tracer, factors []float64) map[string]float64 {
	counts := map[string]float64{}
	// byName is every latency in ms, keyed by span or sample name.
	byName := map[string][]float64{}
	var opsWall []float64
	for _, r := range rounds {
		for k, x := range r.counts {
			counts[k] += x
		}
		for k, xs := range r.samples {
			byName[k] = append(byName[k], xs...)
		}
		if r.stalled > 0 { // the rate work_per_s leaves the stalls out of
			opsWall = append(opsWall, r.work/r.timed.Seconds())
		}
	}
	roundTotals := map[string]map[int]float64{}
	for _, s := range tr.spans {
		d := float64(s.End-s.Start) / 1e6 / factors[s.Round]
		if !perRoundSpans[s.Name] {
			byName[s.Name] = append(byName[s.Name], d)
			continue
		}
		if roundTotals[s.Name] == nil {
			roundTotals[s.Name] = map[int]float64{}
		}
		roundTotals[s.Name][s.Round] += d
	}
	for name, totals := range roundTotals {
		for _, t := range totals {
			byName[name] = append(byName[name], t)
		}
	}

	// Timings: metric layer.call_ms or layer.call_us is the median of
	// the latencies called layer.call.
	v := map[string]float64{}
	for _, m := range perLayer {
		switch m.unit {
		case "ms":
			v[m.name] = median(byName[strings.TrimSuffix(m.name, "_ms")])
		case "us":
			v[m.name] = 1000 * median(byName[strings.TrimSuffix(m.name, "_us")])
		}
	}
	v["netstore.query_us_quiet"] = 1000 * median(byName["netstore.query_quiet"])
	v["netstore.query_us_busy"] = 1000 * median(byName["netstore.query_busy"])
	v["online.apply_max_ms"] = maxOf(byName["online.resolve"])
	v["online.ops_per_s_wall"] = median(opsWall)

	// Counts: the mean over rounds of what every round counts, and as
	// booked what only the probe counts.
	n := float64(len(rounds))
	for _, k := range []string{"nosy.iterations", "shard.shards", "chitchat.cost_ratio", "nosy.cost_ratio",
		"shard.cost_ratio", "online.resolves", "online.reverted", "online.amortized",
		"netstore.retries", "netstore.redials", "netstore.epochs"} {
		v[k] = counts[k] / n
	}
	for _, k := range []string{"store.msgs_per_req", "chitchat.scale", "nosy.scale"} {
		v[k] = counts[k]
	}
	if a := counts["attempts"]; a > 0 {
		v["online.accept_ratio"] = counts["online.resolves"] / a
		v["online.region_edges_mean"] = counts["region_edges"] / a
		v["online.region_share"] = counts["region_share"] / a
	}
	for _, kind := range []string{"query", "update"} {
		if k := float64(len(byName["netstore."+kind])); k > 0 {
			v["netstore.msgs_per_"+kind] = counts[kind+"_msgs"] / k
			v["netstore.bytes_per_"+kind] = counts[kind+"_bytes"] / k
		}
	}
	return v
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// probe drives, once and under spans, the layers a workload uses only
// indirectly, on the inputs of the run's last round: solvers on one
// worker, the maintainer and region machinery bare, the in-process tier
// on the TCP tier's trace.
func probe(s seam, workload string, geo geometry, last *round) {
	k := last.keep
	sp := s.begin("harness.probe")
	defer s.end(sp)
	switch workload {
	case "solve_batch":
		rb, rs := s.logDegreeRates(k.big), s.logDegreeRates(k.small)
		for _, c := range []struct {
			name string
			g    *graphT
			r    *rates
		}{{"chitchat", k.small, rs}, {"nosy", k.big, rb}} {
			// Both sides of the ratio are taken back to back here, not
			// from the rounds, so machine drift cancels.
			t0 := time.Now()
			_, _, err := s.solve(c.name+".solve_w1", c.name, solveOpts{workers: 1}, c.g, c.r)
			w1 := time.Since(t0)
			t0 = time.Now()
			_, _, err2 := s.solve("harness.solve_again", c.name, solveOpts{}, c.g, c.r)
			if err != nil || err2 != nil {
				last.fail("%s probe: %v %v", c.name, err, err2)
				continue
			}
			last.add(c.name+".scale", w1.Seconds()/time.Since(t0).Seconds())
		}
		s.locality(k.big, geo.shards)
	case "churn_local":
		rb := s.logDegreeRates(k.big)
		m := s.newMaintainer(k.sched, rb)
		for _, op := range k.ops {
			if err := s.maintain(m, op); err != nil {
				last.fail("maintainer replay: %v", err)
				break
			}
		}
		s.rebase(m)
		region := s.khop(k.big, k.ops[0].U, 2, 768) // the daemon's default K and MaxRegionNodes
		s.induced(k.big, region)
		s.refine(cloneSchedule(k.sched), rb)
	case "serve_static":
		m, err := s.newMemTier(k.sched, servers)
		if err != nil {
			last.fail("in-process tier: %v", err)
			return
		}
		defer m.close()
		model := newFeedModel(k.big)
		msgs := 0
		for _, q := range k.reqs {
			if q.IsUpdate {
				msgs += s.memUpdate(m, q.User, model.produce(q.User))
			} else {
				_, n := s.memQuery(m, q.User)
				msgs += n
			}
		}
		last.add("store.msgs_per_req", float64(msgs)/float64(len(k.reqs)))
		if err := s.swap(m, k.sched); err != nil {
			last.fail("swap: %v", err)
		}
	}
}

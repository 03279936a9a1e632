package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentileAndTenBeyondRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median(xs); got != 500.5 {
		t.Errorf("median of 1..1000 = %v, want 500.5", got)
	}
	for _, c := range []struct {
		n          int
		p, used, v float64
	}{
		{1000, 0.99, 0.99, 990}, // exactly ten beyond
		{500, 0.99, 0.98, 490},  // p99 would have five beyond: lowered to p98
		{200, 0.95, 0.95, 190},
		{12, 0.99, 0.5, 6.5}, // no percentile above the median qualifies
	} {
		ys := make([]float64, c.n)
		for i := range ys {
			ys[i] = float64(i + 1)
		}
		v, used := tail(ys, c.p)
		if math.Abs(used-c.used) > 1e-9 || v != c.v {
			t.Errorf("tail(1..%d, %v) = %v at p%v, want %v at p%v", c.n, c.p, v, 100*used, c.v, 100*c.used)
		}
		beyond := 0
		for _, y := range ys {
			if y > v {
				beyond++
			}
		}
		if used > 0.5 && beyond < minBeyond {
			t.Errorf("tail(1..%d, %v): only %d samples beyond", c.n, c.p, beyond)
		}
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs10()); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func xs10() []float64 { return []float64{3, 1, 2, 6, 5, 4, 9, 8, 7, 10} }

// A consumer that stalls makes every op queued behind it late by what
// is left of the stall, while the generator keeps to its schedule.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	const n, rate, stallAt = 80, 1000.0, 10
	stall := 60 * time.Millisecond
	ft := openLoop(n, rate, func(i int) {
		if i == stallAt {
			time.Sleep(stall)
		}
	})
	if got := ft.lag[stallAt]; got < ms(stall) {
		t.Errorf("stalled op lag %v ms, want at least %v", got, ms(stall))
	}
	// Op stallAt+20 was due 20 ms into the 60 ms stall: it waited for
	// about the other 40.
	if got := ft.lag[stallAt+20]; got < 30 {
		t.Errorf("op queued behind the stall: lag %v ms, want about 40", got)
	}
	if got := ft.lag[stallAt+20]; got > ft.lag[stallAt+1] {
		t.Errorf("lag should drain: %v ms after %v ms", got, ft.lag[stallAt+1])
	}
	// The generator released that op on time all the same; were its
	// lateness folded into lag, the stall would be indistinguishable
	// from a slow harness.
	if got := median(ft.late); got > 20 {
		t.Errorf("generator ran %v ms late (median); the stall must not hold it up", got)
	}
	if got := ft.late[stallAt+20]; got > 25 {
		t.Errorf("generator released op %d %v ms late during the stall", stallAt+20, got)
	}
}

func TestFeedModelAgainstInProcessCluster(t *testing.T) {
	var s seam
	g := s.flickrGraph(50, 3)
	r := s.logDegreeRates(g)
	sc, _, err := s.solve("", "nosy", solveOpts{}, g, r)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.newMemTier(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	model := newFeedModel(g)
	rng := rand.New(rand.NewSource(3))
	var last []event
	var lastUser nodeID
	for i := 0; i < 3000; i++ {
		u := nodeID(rng.Intn(numNodes(g)))
		if i%3 == 0 {
			s.memUpdate(m, u, model.produce(u))
			continue
		}
		got, _ := s.memQuery(m, u)
		if err := model.check(u, got); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(got) == feedSize {
			last, lastUser = got, u
		}
	}
	if last == nil {
		t.Fatal("no full feed seen")
	}
	// The model must notice a feed that lost its newest event, one out
	// of order and one that was never produced.
	if err := model.check(lastUser, last[1:]); err == nil {
		t.Error("feed without its newest event passed")
	}
	swapped := append([]event(nil), last...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := model.check(lastUser, swapped); err == nil {
		t.Error("feed out of order passed")
	}
	forged := append([]event(nil), last...)
	forged[0].User++
	if err := model.check(lastUser, forged); err == nil {
		t.Error("forged event passed")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "work_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = f * x
		}
		return out
	}
	noisy := []float64{70, 130, 100, 75, 125, 100, 80, 120, 100, 100}
	for _, c := range []struct {
		a, b []float64
		m    specMetric
		want string
	}{
		{steady, scaled(1.05), lower, "ok"},
		{steady, scaled(1.2), lower, "worse"},
		{steady, scaled(0.8), lower, "ok"},
		{steady, scaled(0.8), higher, "worse"},
		{steady, scaled(1.2), higher, "ok"},
		{steady, noisy, lower, "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("verdict(%v, median %v → %v) = %s, want %s", c.m.Better, median(c.a), median(c.b), got, c.want)
		}
	}
}

// The smoke geometry runs the four workloads' real code twice, traced,
// and holds the output to BENCHMARK.json and to itself: names and units
// as declared, every exact count the same on both runs.
func TestSmokeMatchesBenchmarkJSONAndRepeats(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	sameDefs := func(kind string, declared []specMetric, ours []metricDef) {
		if len(declared) != len(ours) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness prints %d", kind, len(declared), len(ours))
		}
		for i, d := range declared {
			if d.Name != ours[i].name || d.Unit != ours[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", kind, i, d.Name, d.Unit, ours[i].name, ours[i].unit)
			}
		}
	}
	sameDefs("end_to_end", spec.EndToEnd, endToEnd)
	sameDefs("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}

	exact := map[string][]string{
		"solve_batch":  {"cost_ratio"},
		"churn_local":  {"cost_ratio", "online.resolves", "online.reverted"},
		"serve_static": {"cost_ratio", "wire_bytes_per_req"},
		"live_e2e":     {"cost_ratio", "online.resolves", "online.reverted"},
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the harness %s", i, spec.Workloads[i].Name, w.name)
		}
		c := runConfig{w: w, geo: smokeGeometry, seed: 7, seconds: 0, trace: true, outDir: t.TempDir()}
		var runs [2]outcome
		for k := range runs {
			o, err := runWorkload(c)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s: %d of %d ops failed", w.name, o.failed, o.attempted)
			}
			res := o.result()
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%s: traced run prints %d metrics, want %d", w.name, len(res.Metrics), len(perLayer))
			}
			for _, m := range endToEnd {
				if v := o.endToEnd[m.name]; !(v > 0) {
					t.Errorf("%s: %s = %v, want a positive number", w.name, m.name, v)
				}
			}
			runs[k] = o
		}
		for _, name := range exact[w.name] {
			a, okA := runs[0].endToEnd[name]
			b := runs[1].endToEnd[name]
			if !okA {
				a, b = runs[0].perLayer[name], runs[1].perLayer[name]
			}
			if a != b {
				t.Errorf("%s: %s differs between two runs of one seed: %v and %v", w.name, name, a, b)
			}
		}
	}
}

// An untraced run takes the nil-thread path through the seam.
func TestUntracedRunPrintsEndToEndMetrics(t *testing.T) {
	o, err := runWorkload(runConfig{w: workloads[2], geo: smokeGeometry, seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res := o.result()
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Errorf("untraced serve_static: correct=%v with %d metrics, want true with %d", res.Correct, len(res.Metrics), len(endToEnd))
	}
}

func TestMachineFactorNormalizesARound(t *testing.T) {
	ref := reading{spinMS: 22, pingUS: refPingUS, kernelMS: refKernelMS}
	if f := machineFactor(ref, ref); f != 1 {
		t.Errorf("factor of the reference state = %v, want 1", f)
	}
	// Ping-pong 1.6× and kernel 1.2× slower on both sides: 1.4. The spin
	// must not count.
	slow := reading{spinMS: 99, pingUS: 1.6 * refPingUS, kernelMS: 1.2 * refKernelMS}
	if f := machineFactor(slow, slow); math.Abs(f-1.4) > 1e-9 {
		t.Errorf("factor = %v, want 1.4", f)
	}
	if f := machineFactor(ref, slow); math.Abs(f-1.2) > 1e-9 {
		t.Errorf("factor across a change of state = %v, want 1.2", f)
	}
	r := newRound()
	r.setup, r.timed, r.stalled = 2*time.Second, 4*time.Second, time.Second
	r.op, r.stall = []float64{2, 4}, []float64{100}
	r.wireBytes, r.requests, r.work = 1000, 10, 10
	r.sample("online.resolve", 100)
	r.add("online.resolves", 3)
	r.normalize(2)
	if r.setup != time.Second || r.timed != 2*time.Second || r.stalled != 500*time.Millisecond {
		t.Errorf("durations after normalize(2): %v %v %v", r.setup, r.timed, r.stalled)
	}
	if r.op[1] != 2 || r.stall[0] != 50 || r.samples["online.resolve"][0] != 50 {
		t.Errorf("latencies after normalize(2): %v %v %v", r.op, r.stall, r.samples)
	}
	if r.wireBytes != 1000 || r.requests != 10 || r.work != 10 || r.counts["online.resolves"] != 3 {
		t.Error("normalize touched a count")
	}
}

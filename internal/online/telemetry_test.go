package online

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/fault"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/solver"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// telemetryOut is one breaker-quarantine run's deterministic artifacts:
// the span tree, the non-timing metric snapshot and the breaker event
// stream, with the run's end Stats.
type telemetryOut struct {
	tree, snap string
	events     []string
	st         Stats
}

// telemetryRun drives the breaker-quarantine scenario (panicking primary,
// chitchat fallback) with full telemetry attached.
func telemetryRun(workers int) (out telemetryOut, err error) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(400, 250), 7))
	base := workload.LogDegree(g, 5)
	r := freshRates(g, base)
	init := chitchat.Solve(g, r, chitchat.Config{})
	trace := workload.GenerateChurn(g, base, scaled(2500, 1200), workload.ChurnConfig{Seed: 7})

	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(7)
	var ev telemetry.EventLog
	primary := solver.Chain(solver.NewNosy(nosy.Config{Workers: workers}), fault.SolverPanics(1, 4))
	d, err := New(init, r, Config{
		Regional:          primary,
		Fallback:          solver.NewChitChat(chitchat.Config{}),
		BreakerThreshold:  2,
		BreakerProbeEvery: 2,
		DriftThreshold:    0.02,
		CheckEvery:        8,
		BudgetFraction:    -1,
		Metrics:           reg,
		Tracer:            tr,
		Events:            &ev,
	})
	if err != nil {
		return out, err
	}
	if err := d.ApplyTrace(trace); err != nil {
		return out, fmt.Errorf("trace failed: %w", err)
	}
	if err := d.Validate(); err != nil {
		return out, fmt.Errorf("final schedule invalid: %w", err)
	}
	// One stall observed per re-solve attempt, whatever its verdict; a wall
	// time, so in the registry and out of the deterministic snapshot.
	full := reg.Snapshot()
	if m, _ := full.Get("online_stall_seconds"); m.Count == 0 || int(m.Count) != len(ev.Attrs("resolve")) || m.Sum <= 0 {
		return out, fmt.Errorf("online_stall_seconds = %+v over %d re-solve attempts", m, len(ev.Attrs("resolve")))
	}
	if _, ok := full.NonTiming().Get("online_stall_seconds"); ok {
		return out, errors.New("online_stall_seconds is in the non-timing snapshot")
	}
	return telemetryOut{tr.Tree(), full.NonTiming().String(), ev.Attrs("breaker"), d.Stats()}, nil
}

func mustTelemetryRun(t *testing.T, workers int) telemetryOut {
	t.Helper()
	out, err := telemetryRun(workers)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// telemetryFirst is telemetryRun(1)'s first run, kept for every test that
// reads one; a failure is kept with it, so each reader fails on it.
var telemetryFirst struct {
	sync.Once
	out telemetryOut
	err error
}

func firstTelemetryRun(t *testing.T) telemetryOut {
	t.Helper()
	f := &telemetryFirst
	f.Do(func() { f.out, f.err = telemetryRun(1) })
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.out
}

// Same seed, same fault plan, same configuration: two runs must produce
// a byte-identical span tree, an identical non-timing metric snapshot,
// and an identical breaker event stream — and the artifacts must not
// depend on the solver's worker count either.
func TestDaemonTelemetryDeterministic(t *testing.T) {
	run1, run2 := firstTelemetryRun(t), mustTelemetryRun(t, 1)
	tree1, snap1, ev1 := run1.tree, run1.snap, run1.events
	tree2, snap2, ev2 := run2.tree, run2.snap, run2.events
	if tree1 != tree2 {
		t.Fatalf("span tree differs across identical runs:\n--- run 1\n%s\n--- run 2\n%s", tree1, tree2)
	}
	if snap1 != snap2 {
		t.Fatalf("non-timing snapshot differs across identical runs:\n--- run 1\n%s\n--- run 2\n%s", snap1, snap2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event streams differ: %v vs %v", ev1, ev2)
	}
	run4 := mustTelemetryRun(t, 4)
	tree4, snap4, ev4 := run4.tree, run4.snap, run4.events
	if tree1 != tree4 {
		t.Fatalf("span tree differs between Workers=1 and Workers=4:\n--- w1\n%s\n--- w4\n%s", tree1, tree4)
	}
	if snap1 != snap4 {
		t.Fatalf("non-timing snapshot differs between Workers=1 and Workers=4:\n--- w1\n%s\n--- w4\n%s", snap1, snap4)
	}
	for i := range ev1 {
		if ev1[i] != ev4[i] {
			t.Fatalf("event %d differs between worker counts: %q vs %q", i, ev1[i], ev4[i])
		}
	}
	if tree1 == "" {
		t.Fatal("no spans recorded — tracer was not wired through the daemon")
	}
}

// The breaker's exact transition sequence under the pinned fault plan:
// two panics trip it, the first probe panics and re-opens it, the
// second probe succeeds and closes it. The EventLog pins the order, not
// just the counts.
func TestDaemonBreakerTransitionSequence(t *testing.T) {
	run := firstTelemetryRun(t)
	events, st := run.events, run.st
	want := []string{
		"closed->open",
		"open->half-open",
		"half-open->open",
		"open->half-open",
		"half-open->closed",
	}
	if len(events) != len(want) {
		t.Fatalf("breaker transitions = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q (full stream %v)", i, events[i], want[i], events)
		}
	}
	if st.Breaker == nil || st.Breaker.Open {
		t.Fatalf("breaker did not settle closed: %+v", st.Breaker)
	}
}

// The registry mirror of Stats must agree with Stats itself, and every
// online_* series must be registered (at zero) from construction so a
// scrape between boot and the first op still sees the full inventory.
func TestDaemonMetricsMirrorStats(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(200, 5))
	base := workload.LogDegree(g, 5)
	r := freshRates(g, base)
	init := chitchat.Solve(g, r, chitchat.Config{})

	reg := telemetry.NewRegistry()
	d, err := New(init, r, Config{Metrics: reg, DriftThreshold: 0.05, CheckEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"online_ops_total", "online_adds_total", "online_removes_total",
		"online_rate_updates_total", "online_rescues_total",
		"online_resolves_total", "online_reverted_total",
		"online_solver_errors_total", "online_region_edges_total",
		"online_drift_checks_total", "online_region_extractions_total",
		"online_boundary_repairs_total", "online_breaker_transitions_total",
		"online_cost", "online_breaker_state", "online_stall_seconds",
		"online_apply_seconds",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("series %s not registered at construction:\n%s", name, snap.String())
		}
	}
	m, _ := snap.Get("online_cost")
	if m.Value != d.Cost() {
		t.Fatalf("online_cost = %v at boot, want %v", m.Value, d.Cost())
	}

	trace := workload.GenerateChurn(g, base, 600, workload.ChurnConfig{Seed: 3})
	if err := d.ApplyTrace(trace); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	snap = reg.Snapshot()
	for name, want := range map[string]int{
		"online_ops_total":                st.Ops,
		"online_adds_total":               st.Adds,
		"online_removes_total":            st.Removes,
		"online_rate_updates_total":       st.RateUpdates,
		"online_rescues_total":            st.Rescues,
		"online_resolves_total":           st.Resolves,
		"online_reverted_total":           st.Reverted,
		"online_region_edges_total":       st.RegionEdges,
		"online_drift_checks_total":       st.DriftChecks,
		"online_region_extractions_total": st.RegionExtractions,
	} {
		m, ok := snap.Get(name)
		if !ok || int(m.Value) != want {
			t.Fatalf("%s = %+v, want %d", name, m, want)
		}
	}
	m, _ = snap.Get("online_cost")
	if m.Value != d.Cost() {
		t.Fatalf("online_cost = %v, want %v", m.Value, d.Cost())
	}
}

// One ("resolve", …) event per re-solve attempt, in a fixed format with
// no timings: what the region looked like, how far the solve got and
// whether the stopping rule cut it, how many ops landed between start and
// splice, what the patch cost at each step and what the gate made of it.
// On this 80-node trace the region is the whole graph, so hybrid − saved
// is the raw patch as solved and incumbent is the total at the start; the
// eight ops replayed before the gate move both sides (the first record: a
// patch equal to the incumbent stays equal, and is reverted).
func TestDaemonDecisionRecord(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(80, 7))
	base := workload.LogDegree(g, 5)
	r := freshRates(g, base)
	var ev telemetry.EventLog
	d, err := New(chitchat.Solve(g, r, chitchat.Config{}), r, Config{
		DriftThreshold: 0.02, CheckEvery: 8, BudgetFraction: -1, Events: &ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyTrace(workload.GenerateChurn(g, base, 120, workload.ChurnConfig{Seed: 7})); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"seed=53 nodes=80 edges=2187 incumbent=2933.1 hybrid=9950.6 commits=231 saved=7017.5 stopped=exhausted lag=8 raw=2929.6 refined=2929.6 amortized=2929.6 total=2929.6 verdict=reverted backoff=1",
		"seed=9 nodes=80 edges=2189 incumbent=2921.3 hybrid=9836.0 commits=232 saved=6910.8 stopped=exhausted lag=8 raw=2900.2 refined=2895.0 amortized=2895.0 total=2896.4 verdict=accepted backoff=0",
		"seed=15 nodes=80 edges=2189 incumbent=2895.0 hybrid=9833.0 commits=233 saved=6932.8 stopped=exhausted lag=8 raw=2893.2 refined=2888.0 amortized=2888.0 total=2888.0 verdict=reverted backoff=1",
		"seed=3 nodes=80 edges=2184 incumbent=2940.6 hybrid=9624.8 commits=128 saved=6757.6 stopped=early lag=8 raw=2879.7 refined=2879.7 amortized=2879.7 total=2961.7 verdict=accepted backoff=0",
		"seed=7 nodes=80 edges=2184 incumbent=2879.7 hybrid=9812.1 commits=214 saved=6926.8 stopped=exhausted lag=8 raw=2889.4 refined=2889.4 amortized=2889.4 total=2883.7 verdict=reverted backoff=1",
		"seed=29 nodes=80 edges=2177 incumbent=3062.2 hybrid=9891.5 commits=269 saved=6779.4 stopped=exhausted lag=8 raw=3101.4 refined=3089.0 amortized=3089.0 total=3051.4 verdict=reverted backoff=2",
	}
	got := ev.Attrs("resolve")
	if len(got) != len(want) {
		t.Fatalf("%d decision records, want %d:\n%s", len(got), len(want), ev.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if st := d.Stats(); st.Resolves+st.Reverted != len(want) {
		t.Errorf("%d attempts in Stats, %d records", st.Resolves+st.Reverted, len(want))
	}
}

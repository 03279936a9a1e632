package online

import (
	"math"
	"strings"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/graphgen"
	"piggyback/internal/scenario"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// The telemetry's determinism rides the zoo replay: on every cell the
// disturbed run ends on the observed run's span tree, decision records and
// non-timing metric snapshot (sameEnd). The churn cell's observed run,
// which starts from a NOSY incumbent and has both of the gate's verdicts,
// also holds the one wall-clock series the daemon keeps per attempt: one
// stall observed per re-solve attempt, whatever its verdict, and kept out
// of the non-timing snapshot.
func TestDaemonTelemetryDeterministic(t *testing.T) {
	for _, r := range zooReplays() {
		if r.cell.name != "churn" {
			continue
		}
		run := r.observed
		if run.tree == "" {
			t.Fatal("no spans recorded — tracer was not wired through the daemon")
		}
		if !strings.Contains(run.records, "verdict=accepted") || !strings.Contains(run.records, "verdict=reverted") {
			t.Fatalf("want an accepted and a reverted attempt:\n%s", run.records)
		}
		attempts := strings.Count(run.records, "\n") + 1
		if m, _ := run.metrics.Get("online_stall_seconds"); int(m.Count) != attempts || m.Sum <= 0 {
			t.Errorf("online_stall_seconds = %+v over %d re-solve attempts", m, attempts)
		}
		if _, ok := run.metrics.NonTiming().Get("online_stall_seconds"); ok {
			t.Error("online_stall_seconds is in the non-timing snapshot")
		}
		sameEnd(t, r)
		return
	}
	t.Fatal("the zoo replay has no churn cell")
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
	d, err := New(init, r, Config{Metrics: reg, DriftThreshold: 0.02, CheckEvery: 8, BudgetFraction: -1})
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
		"online_boundary_repairs_total",
		"online_cost", "online_resolve_wall_seconds_total",
		"online_region_size", "online_stall_seconds", "online_apply_seconds",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("series %s not registered at construction:\n%s", name, snap.PromText())
		}
	}
	m, _ := snap.Get("online_cost")
	if m.Value != d.Cost() {
		t.Fatalf("online_cost = %v at boot, want %v", m.Value, d.Cost())
	}

	trace := scenario.GenerateChurn(g, base, 600, scenario.ChurnConfig{Seed: 3})
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
		"online_solver_errors_total":      st.SolverErrors,
		"online_boundary_repairs_total":   st.BoundaryRepairs,
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
	m, _ = snap.Get("online_resolve_wall_seconds_total")
	if st.Resolves == 0 || math.Abs(m.Value-st.ResolveWall.Seconds()) > 1e-9 {
		t.Fatalf("online_resolve_wall_seconds_total = %v after %d re-solves, want %v (%+v)", m.Value, st.Resolves, st.ResolveWall.Seconds(), st)
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
	var got []string
	d, err := New(chitchat.Solve(g, r, chitchat.Config{}), r, Config{
		DriftThreshold: 0.02, CheckEvery: 8, BudgetFraction: -1, Events: collect(&got),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyTrace(scenario.GenerateChurn(g, base, 120, scenario.ChurnConfig{Seed: 7})); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"seed=53 nodes=80 edges=2187 incumbent=2933.1 hybrid=9950.6 commits=231 saved=7017.5 stopped=exhausted lag=8 raw=2929.6 refined=2929.6 total=2929.6 verdict=reverted backoff=1",
		"seed=9 nodes=80 edges=2189 incumbent=2921.3 hybrid=9836.0 commits=232 saved=6910.8 stopped=exhausted lag=8 raw=2900.2 refined=2895.0 total=2896.4 verdict=accepted backoff=0",
		"seed=15 nodes=80 edges=2189 incumbent=2895.0 hybrid=9833.0 commits=233 saved=6932.8 stopped=exhausted lag=8 raw=2893.2 refined=2888.0 total=2888.0 verdict=reverted backoff=1",
		"seed=3 nodes=80 edges=2184 incumbent=2940.6 hybrid=9624.8 commits=128 saved=6757.6 stopped=early lag=8 raw=2879.7 refined=2879.7 total=2961.7 verdict=accepted backoff=0",
		"seed=7 nodes=80 edges=2184 incumbent=2879.7 hybrid=9812.1 commits=214 saved=6926.8 stopped=exhausted lag=8 raw=2889.4 refined=2889.4 total=2883.7 verdict=reverted backoff=1",
		"seed=29 nodes=80 edges=2177 incumbent=3062.2 hybrid=9891.5 commits=269 saved=6779.4 stopped=exhausted lag=8 raw=3101.4 refined=3089.0 total=3051.4 verdict=reverted backoff=2",
	}
	if len(got) != len(want) {
		t.Fatalf("%d decision records, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
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

package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/solver"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

func quickProblem(t *testing.T) solver.Problem {
	t.Helper()
	g := graphgen.Social(graphgen.FlickrLike(400, 1))
	return solver.Problem{Graph: g, Rates: workload.LogDegree(g, 5)}
}

func sameSchedule(t *testing.T, label string, a, b *core.Schedule, g *graph.Graph) {
	t.Helper()
	for e := 0; e < g.NumEdges(); e++ {
		ee := graph.EdgeID(e)
		if a.IsPush(ee) != b.IsPush(ee) || a.IsPull(ee) != b.IsPull(ee) ||
			a.IsCovered(ee) != b.IsCovered(ee) || a.Hub(ee) != b.Hub(ee) {
			t.Fatalf("%s: schedules differ at edge %d", label, e)
		}
	}
}

// The -short registry smoke test: the solver is registered, solves a
// small graph end-to-end, and the result is Theorem-1 valid.
func TestShardRegistrySmoke(t *testing.T) {
	sv, err := solver.Default.New(Name, solver.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := quickProblem(t)
	res, err := sv.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Report.Solver != Name || res.Report.Iterations != 4 {
		t.Fatalf("report = %+v, want solver %q over 4 shards", res.Report, Name)
	}
	if res.Report.Cost != res.Schedule.Cost(p.Rates) {
		t.Fatalf("reported cost %v != schedule cost %v", res.Report.Cost, res.Schedule.Cost(p.Rates))
	}
}

// Reconciliation invariant: for every shard count, the schedule is
// byte-identical across worker counts and across reruns — the fixed
// merge order at work.
func TestShardWorkerInvariance(t *testing.T) {
	p := quickProblem(t)
	for _, shards := range []int{1, 2, 8} {
		ref, err := New(Config{Shards: shards, Workers: 1}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Schedule.Validate(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, workers := range []int{1, 4} {
			got, err := New(Config{Shards: shards, Workers: workers}).Solve(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			sameSchedule(t, "shards/workers grid", ref.Schedule, got.Schedule, p.Graph)
		}
	}
}

// Shards=1 must reproduce the unsharded inner solver's schedule exactly:
// the single shard's induced subgraph IS the whole graph re-frozen, so
// nothing may diverge.
func TestShardOneShardMatchesUnsharded(t *testing.T) {
	p := quickProblem(t)
	sharded, err := New(Config{Shards: 1}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := solver.Default.New(solver.ChitChat, solver.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plain.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, "shards=1 vs unsharded chitchat", ref.Schedule, sharded.Schedule, p.Graph)
	if sharded.Report.BoundaryRepairs != 0 {
		t.Fatalf("boundary repairs = %d, want 0", sharded.Report.BoundaryRepairs)
	}
}

// Acceptance: at Quick scale the default-configured shard solver stays
// within 5% of the unsharded CHITCHAT cost. Auto-sizing keeps a
// Quick-scale graph in one shard (sharding is a memory mechanism, and a
// graph this small does not need it), so the schedule is in fact
// byte-identical — the ratio is exactly 1.
func TestShardQuickCostWithinFivePercent(t *testing.T) {
	p := quickProblem(t)
	plain, err := solver.Default.New(solver.ChitChat, solver.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plain.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(Config{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Report.Iterations != 1 {
		t.Fatalf("auto-sizing picked %d shards for a %d-edge graph, want 1",
			sharded.Report.Iterations, p.Graph.NumEdges())
	}
	if ratio := sharded.Report.Cost / ref.Report.Cost; ratio > 1.05 {
		t.Fatalf("sharded cost %.1f is %.3f× unsharded %.1f (budget 1.05×)",
			sharded.Report.Cost, ratio, ref.Report.Cost)
	}
	sameSchedule(t, "default shard config at Quick scale", ref.Schedule, sharded.Schedule, p.Graph)
}

// Forced sharding loses quality through the cut (the paper's Figure 7
// shows the same throughput penalty as server counts grow), but the
// reconciliation rule — cover a cut edge only when no dearer than direct
// service — guarantees the result never falls behind the hybrid
// baseline.
func TestShardNeverWorseThanHybrid(t *testing.T) {
	p := quickProblem(t)
	hy := baseline.HybridCost(p.Graph, p.Rates)
	for _, shards := range []int{2, 4, 8} {
		res, err := New(Config{Shards: shards}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Report.Cost > hy {
			t.Fatalf("shards=%d: cost %.1f exceeds hybrid %.1f", shards, res.Report.Cost, hy)
		}
		if res.Report.CoveredEdges == 0 {
			t.Fatalf("shards=%d: cut reconciliation covered nothing", shards)
		}
	}
}

func TestShardProgressAndAutoShards(t *testing.T) {
	p := quickProblem(t)
	events := 0
	last := 0
	sv := New(Config{Workers: 1, Progress: func(ev solver.ProgressEvent) {
		events++
		if ev.Solver != Name || ev.Iteration != last+1 {
			t.Fatalf("unexpected event %+v after %d shards", ev, last)
		}
		last = ev.Iteration
	}})
	res, err := sv.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if events != res.Report.Iterations || events < 1 {
		t.Fatalf("saw %d progress events for %d shards", events, res.Report.Iterations)
	}
}

// WithTracing around the sharded solver yields one nested tree: the
// solver's own span with one shard/solve child per shard, begun on the
// coordinating goroutine in shard order — so the tree is byte-identical
// across two runs and across Workers, the determinism contract every
// composite solver owes the tracer.
func TestShardSpanTreeDeterministic(t *testing.T) {
	p := quickProblem(t)
	run := func(workers int) string {
		tr := telemetry.NewTracer(42)
		sv := solver.Chain(New(Config{Shards: 4, Workers: workers}), solver.WithTracing(tr))
		if _, err := sv.Solve(context.Background(), p); err != nil {
			t.Fatalf("solve (workers=%d): %v", workers, err)
		}
		return tr.Tree()
	}
	t1 := run(1)
	if again := run(1); again != t1 {
		t.Fatalf("two identical runs differ:\n%s\nvs\n%s", t1, again)
	}
	if t2 := run(2); t2 != t1 {
		t.Fatalf("tree differs across Workers:\n%s\nvs\n%s", t1, t2)
	}
	lines := strings.Split(strings.TrimSpace(t1), "\n")
	if len(lines) != 5 {
		t.Fatalf("want the solver's span + 4 shard spans, got:\n%s", t1)
	}
	if !strings.HasPrefix(lines[0], "solve/shard#") {
		t.Fatalf("root = %q", lines[0])
	}
	for i, l := range lines[1:] {
		if !strings.HasPrefix(l, "  shard/solve#") || !strings.Contains(l, fmt.Sprintf("shard=%d ", i)) {
			t.Fatalf("shard span %d wrong or out of order:\n%s", i, t1)
		}
		if strings.Contains(l, "[open]") {
			t.Fatalf("unended span in a completed solve:\n%s", t1)
		}
	}
}

func TestShardErrors(t *testing.T) {
	p := quickProblem(t)
	if _, err := New(Config{}).Solve(context.Background(), solver.Problem{}); !errors.Is(err, solver.ErrNoGraph) {
		t.Fatalf("nil graph: err = %v", err)
	}
	region := solver.Problem{Graph: p.Graph, Rates: p.Rates, Base: core.NewSchedule(p.Graph), Region: []graph.EdgeID{0}}
	if _, err := New(Config{}).Solve(context.Background(), region); !errors.Is(err, solver.ErrRegionUnsupported) {
		t.Fatalf("region: err = %v", err)
	}
	if _, err := New(Config{Inner: "no-such-solver"}).Solve(context.Background(), p); !errors.Is(err, solver.ErrUnknownSolver) {
		t.Fatalf("unknown inner: err = %v", err)
	}
	if solver.SupportsRegions(New(Config{})) {
		t.Fatal("shard solver claims region support")
	}
}

// Anytime contract: a canceled context still yields a valid schedule
// alongside the cancellation cause.
func TestShardCancellation(t *testing.T) {
	p := quickProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(Config{Shards: 8}).Solve(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no anytime result")
	}
	if verr := res.Schedule.Validate(); verr != nil {
		t.Fatal(verr)
	}
	if !res.Report.Canceled {
		t.Fatal("report does not record cancellation")
	}
}

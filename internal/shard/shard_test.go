package shard_test

import (
	"context"
	"errors"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/shard"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

func quickProblem(t *testing.T) solver.Problem {
	t.Helper()
	g := graphgen.Social(graphgen.FlickrLike(400, 1))
	return solver.Problem{Graph: g, Rates: workload.LogDegree(g, 5)}
}

// newShard builds the sharded solver by name.
func newShard(t *testing.T, shards, workers int) solver.Solver {
	t.Helper()
	sv, err := solver.New(solver.Shard, solver.Options{Shards: shards, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// solveChitChat is the SolveFunc the shard solver binds: one
// single-threaded CHITCHAT solve. Tests that read shard.Result call
// shard.SolveCtx with it.
func solveChitChat(ctx context.Context, g *graph.Graph, r *workload.Rates) (*core.Schedule, error) {
	return chitchat.SolveCtx(ctx, g, r, chitchat.Config{Workers: 1})
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

// The -short smoke test: the solver is built by name, solves a small
// graph end-to-end, and the result is Theorem-1 valid.
func TestShardRegistrySmoke(t *testing.T) {
	sv, err := solver.New(solver.Shard, solver.Options{Shards: 4})
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
	if res.Report.Solver != solver.Shard || res.Report.Iterations != 4 {
		t.Fatalf("report = %+v, want solver %q over 4 shards", res.Report, solver.Shard)
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
		ref, err := newShard(t, shards, 1).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Schedule.Validate(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, workers := range []int{1, 4} {
			got, err := newShard(t, shards, workers).Solve(context.Background(), p)
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
	sharded, err := shard.SolveCtx(context.Background(), p.Graph, p.Rates, shard.Config{Shards: 1}, solveChitChat)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := solver.New(solver.ChitChat, solver.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plain.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, "shards=1 vs unsharded chitchat", ref.Schedule, sharded.Schedule, p.Graph)
	if sharded.BoundaryRepairs != 0 {
		t.Fatalf("boundary repairs = %d, want 0", sharded.BoundaryRepairs)
	}
}

// Acceptance: at Quick scale the default-configured shard solver stays
// within 5% of the unsharded CHITCHAT cost. Auto-sizing keeps a
// Quick-scale graph in one shard (sharding is a memory mechanism, and a
// graph this small does not need it), so the schedule is in fact
// byte-identical — the ratio is exactly 1.
func TestShardQuickCostWithinFivePercent(t *testing.T) {
	p := quickProblem(t)
	plain, err := solver.New(solver.ChitChat, solver.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plain.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := newShard(t, 0, 0).Solve(context.Background(), p)
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
		res, err := shard.SolveCtx(context.Background(), p.Graph, p.Rates, shard.Config{Shards: shards}, solveChitChat)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if cost := res.Schedule.Cost(p.Rates); cost > hy {
			t.Fatalf("shards=%d: cost %.1f exceeds hybrid %.1f", shards, cost, hy)
		}
		if res.CutCovered == 0 {
			t.Fatalf("shards=%d: cut reconciliation covered nothing", shards)
		}
	}
}

func TestShardProgressAndAutoShards(t *testing.T) {
	p := quickProblem(t)
	events := 0
	last := 0
	sv, err := solver.New(solver.Shard, solver.Options{Workers: 1, Progress: func(ev solver.ProgressEvent) {
		events++
		if ev.Solver != solver.Shard || ev.Iteration != last+1 {
			t.Fatalf("unexpected event %+v after %d shards", ev, last)
		}
		last = ev.Iteration
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sv.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if events != res.Report.Iterations || events < 1 {
		t.Fatalf("saw %d progress events for %d shards", events, res.Report.Iterations)
	}
}

func TestShardErrors(t *testing.T) {
	p := quickProblem(t)
	if _, err := newShard(t, 0, 0).Solve(context.Background(), solver.Problem{}); !errors.Is(err, solver.ErrNoGraph) {
		t.Fatalf("nil graph: err = %v", err)
	}
	// A shard's hard failure aborts the whole solve with its error.
	boom := errors.New("boom")
	fail := func(context.Context, *graph.Graph, *workload.Rates) (*core.Schedule, error) { return nil, boom }
	if res, err := shard.SolveCtx(context.Background(), p.Graph, p.Rates, shard.Config{Shards: 2}, fail); !errors.Is(err, boom) || res.Schedule != nil {
		t.Fatalf("failing shard: schedule %v, err = %v", res.Schedule != nil, err)
	}
}

// Anytime contract: a canceled context still yields a valid schedule
// alongside the cancellation cause.
func TestShardCancellation(t *testing.T) {
	p := quickProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := newShard(t, 8, 0).Solve(ctx, p)
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

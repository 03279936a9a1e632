package shard_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/partition"
	"piggyback/internal/schedio"
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
// baseline. At each shard count the spliced shards must already support
// every cover (shard.Spliced checks it), and some cut edge must end up
// covered.
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
		shard.Spliced(t, p.Graph, p.Rates, shards)
		assign := partition.Locality(p.Graph, shards, 0)
		cutCovered := 0
		p.Graph.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
			if assign.Of(u) != assign.Of(v) && res.Schedule.IsCovered(e) {
				cutCovered++
			}
			return true
		})
		if cutCovered == 0 {
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

// shardRates tags every node's production rate with its shard under the
// partition SolveCtx makes of g into k, so a SolveFunc can tell from its
// projected rates which shard it is solving.
func shardRates(g *graph.Graph, k int) *workload.Rates {
	assign := partition.Locality(g, k, 0)
	r := &workload.Rates{Prod: make([]float64, g.NumNodes()), Cons: make([]float64, g.NumNodes())}
	for u := range r.Prod {
		r.Prod[u] = float64(assign.Of(graph.NodeID(u)))
	}
	return r
}

// A shard's panic reaches the goroutine that called SolveCtx, where it
// can be recovered: on a spawned goroutine it would kill the process.
// Every shard panics, and shard 0's value is the one that comes back at
// every worker count.
func TestShardPanicReachesTheCaller(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const k = 8
	g := quickProblem(t).Graph
	r := shardRates(g, k)
	boom := func(_ context.Context, _ *graph.Graph, r *workload.Rates) (*core.Schedule, error) {
		panic(fmt.Sprintf("shard %d broke", int(r.Prod[0])))
	}
	for workers := 1; workers <= 4; workers++ {
		raised := func() (p any) {
			defer func() { p = recover() }()
			shard.SolveCtx(context.Background(), g, r, shard.Config{Shards: k, Workers: workers}, boom)
			return nil
		}()
		if raised != "shard 0 broke" {
			t.Errorf("workers=%d: raised %v, want shard 0's panic", workers, raised)
		}
	}
}

// With every shard failing, the error returned is shard 0's at every
// worker count, whichever shard's worker fails first.
func TestShardErrorIsTheLowestShards(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const k = 8
	g := quickProblem(t).Graph
	r := shardRates(g, k)
	fail := func(_ context.Context, _ *graph.Graph, r *workload.Rates) (*core.Schedule, error) {
		return nil, fmt.Errorf("shard %d failed", int(r.Prod[0]))
	}
	for workers := 1; workers <= 4; workers++ {
		for run := 0; run < 20; run++ {
			res, err := shard.SolveCtx(context.Background(), g, r, shard.Config{Shards: k, Workers: workers}, fail)
			if err == nil || err.Error() != "shard 0: shard 0 failed" || res.Schedule != nil {
				t.Fatalf("workers=%d run %d: err = %v, schedule %v", workers, run, err, res.Schedule != nil)
			}
		}
	}
}

// TestShardSchedulesPinned holds the sharded solve to the schedule bytes it
// produced at commit 6aacff4, before the splice's repair walk left it: each
// literal is sha256(schedio.Write(schedule)) taken there, at 2, 4 and 8
// shards on a Flickr-like and a streamed graph. Both worker counts must
// land on them.
func TestShardSchedulesPinned(t *testing.T) {
	nodes, edges := 600, 60_000
	want := map[string]string{
		"flickr/2": "43b916a8e3d5cfe0086a21f1f569a0aacb8c52c61bf9653f105a4014def679b3",
		"flickr/4": "97ead38f83bcf10b70786788e79636206a6dcad4809d63e35fa0323044a3400a",
		"flickr/8": "3cf2a9f6b8881b6e3203a31879836f0a42671c0fa48d9914b667d5dfe0366533",
		"stream/2": "3eb056182acc87fc003061b84c4e4fd6f5c434f07c85707318e66e8ef0f79908",
		"stream/4": "102280cea1036589a37d7feb3af1023d024dbb69815d0368155854dcdad0d1af",
		"stream/8": "ca6ce469fa35541eeb23e08c55353a970c3b83d9fc48cf56121bf9c096009e7b",
	}
	if testing.Short() {
		nodes, edges = 250, 20_000
		want = map[string]string{
			"flickr/2": "b77f334a1edadba3d5f9e70418bb0800d1ab6de1a43de48b8bf6fdd442b8c9f7",
			"flickr/4": "d94a83beb3d193af0a87ee344b395f9531ac4ac0ed68986d3945bba47051ef1a",
			"flickr/8": "275d66666100270af2ee19c33894382190db952408798b9c6065ae12552d7bba",
			"stream/2": "9ac6032ced3f360552a7dff69c103bf55b32b05ec8fceaa8ec5cab699e00bc22",
			"stream/4": "0807ad10f5b0175b31803725382797402cddc29aa02a92d4b545fa8a9b691f7f",
			"stream/8": "f33c6f874169520a415a3bb09f63cc7df0cfde50e3ebb660de519128317502d2",
		}
	}
	for _, gk := range []struct {
		name string
		g    *graph.Graph
	}{
		{"flickr", graphgen.Social(graphgen.FlickrLike(nodes, 1))},
		{"stream", graphgen.StreamSocial(graphgen.FlickrLikeEdges(edges, 7))},
	} {
		r := workload.LogDegree(gk.g, 5)
		for _, shards := range []int{2, 4, 8} {
			key := fmt.Sprintf("%s/%d", gk.name, shards)
			for _, workers := range []int{1, 2} {
				res, err := shard.SolveCtx(context.Background(), gk.g, r, shard.Config{Shards: shards, Workers: workers}, solveChitChat)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := schedio.Write(&buf, res.Schedule); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != want[key] {
					t.Errorf("%s, Workers %d: schedule digest %s, pinned %s", key, workers, got, want[key])
				}
			}
		}
	}
}

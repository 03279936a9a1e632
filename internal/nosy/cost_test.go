package nosy

import (
	"math"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/workload"
)

// relClose compares with relative tolerance: the O(1) running cost
// accumulates deltas in Apply order, so it may differ from a fresh
// summation by floating-point rounding — never by more than that.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-8*(1+math.Abs(b))
}

// The Evaluator's running cost starts at the hybrid cost: an empty
// schedule finalizes to every edge at c*.
func TestEvaluatorInitialCostIsHybrid(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(400, 150), 11))
	r := workload.LogDegree(g, 5)
	ev := NewEvaluator(g, r, Config{Workers: 1})
	if got, want := ev.Cost(), baseline.HybridCost(g, r); !relClose(got, want) {
		t.Fatalf("initial running cost %v, want hybrid %v", got, want)
	}
}

// Exact-vs-fresh, mid-solve: after EVERY iteration the O(1) running
// cost must equal what the pre-O(1) implementation computed by cloning
// the schedule and finalizing the snapshot — replayed here against the
// same state machine Solve drives.
func TestRunningCostMatchesFreshSnapshot(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(400, 160), 9))
	r := workload.LogDegree(g, 5)
	cfg := Config{Workers: 1}
	ev := NewEvaluator(g, r, cfg)
	st := newState(ev, cfg)
	iters := 0
	for {
		stat := st.iterate()
		iters++
		snap := ev.sched.Clone()
		snap.Finalize(r)
		if fresh := snap.Cost(r); !relClose(ev.Cost(), fresh) {
			t.Fatalf("iteration %d: running cost %v, fresh snapshot cost %v", iters, ev.Cost(), fresh)
		}
		if stat.FullCommits+stat.PartialCommits == 0 {
			break
		}
	}
	if iters < 3 {
		t.Fatalf("want a multi-iteration run, got %d", iters)
	}
}

// The public TraceCosts wiring streams those values: the first traced
// cost matches a MaxIterations=1 truncation and the last the final
// schedule (the truncated run's extra RepairCoverage pass does not
// apply to a full solve).
func TestTraceCostsMatchesTruncation(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(300, 140), 9))
	r := workload.LogDegree(g, 5)
	full := Solve(g, r, Config{Workers: 1, TraceCosts: true})
	if len(full.Iterations) < 2 {
		t.Fatalf("want a multi-iteration run, got %d", len(full.Iterations))
	}
	one := Solve(g, r, Config{Workers: 1, MaxIterations: 1})
	if got, fresh := full.Iterations[0].Cost, one.Schedule.Cost(r); !relClose(got, fresh) {
		t.Fatalf("iteration 1: running cost %v, fresh finalized cost %v", got, fresh)
	}
	last := full.Iterations[len(full.Iterations)-1].Cost
	if got := full.Schedule.Cost(r); !relClose(last, got) {
		t.Fatalf("final traced cost %v != final schedule cost %v", last, got)
	}
}

// The restricted entry point re-derives the running cost from the base
// schedule after region clearing; every iteration must match the
// pre-O(1) snapshot (clone + FinalizeEdges over the region), which by
// base validity equals finalizing the whole schedule minus the final
// boundary-repair pass.
func TestRunningCostMatchesFreshRestricted(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(400, 160), 5))
	r := workload.LogDegree(g, 5)
	base := Solve(g, r, Config{Workers: 1}).Schedule
	nodes := graph.KHop(g, []graph.NodeID{3, 40}, 2, 120)
	region := graph.InducedEdgeIDs(g, nodes)
	if len(region) == 0 {
		t.Fatal("degenerate region")
	}

	cfg := Config{Workers: 1}
	ev := newRestrictedEvaluator(g, r, cfg, base, region)
	st := newState(ev, cfg)
	iters := 0
	for {
		stat := st.iterate()
		iters++
		snap := ev.sched.Clone()
		snap.FinalizeEdges(r, region)
		if fresh := snap.Cost(r); !relClose(ev.Cost(), fresh) {
			t.Fatalf("iteration %d: running cost %v, fresh snapshot cost %v", iters, ev.Cost(), fresh)
		}
		if stat.FullCommits+stat.PartialCommits == 0 {
			break
		}
	}
	if iters == 0 {
		t.Fatal("restricted solve ran no iterations")
	}
}

// The Apply* mutators keep the running cost finalized-equivalent in any
// write order, not only Commit's: replay a final schedule edge by edge
// and pin the running cost against the schedule directly.
func TestRunningCostViaEvaluatorApply(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(300, 120), 7))
	r := workload.LogDegree(g, 5)
	ev := NewEvaluator(g, r, Config{Workers: 1})

	// Drive a real solve through SolveCtx's machinery by calling Solve,
	// then replay the final schedule's assignments through a fresh
	// Evaluator's Apply* methods and compare the running cost with the
	// finalized cost.
	res := Solve(g, r, Config{Workers: 1})
	final := res.Schedule
	for e := 0; e < g.NumEdges(); e++ {
		ee := graph.EdgeID(e)
		// Flags before coverage: the Apply* preconditions (an edge being
		// pushed/pulled is not covered-only) mirror the solver's own
		// commit order.
		if final.IsPush(ee) {
			ev.ApplyPush(ee)
		}
		if final.IsPull(ee) {
			ev.ApplyPull(ee)
		}
		if final.IsCovered(ee) {
			ev.ApplyCover(ee, final.Hub(ee))
		}
	}
	// Every edge is now scheduled or covered, so the running cost is the
	// exact cost — no c* placeholders left.
	if got, want := ev.Cost(), final.Cost(r); !relClose(got, want) {
		t.Fatalf("replayed running cost %v, want %v", got, want)
	}
}

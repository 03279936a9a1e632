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

// Every IterationStat carries those values: the first round's cost
// matches a one-round truncation and the last the final schedule.
func TestTraceCostsMatchesTruncation(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(300, 140), 9))
	r := workload.LogDegree(g, 5)
	full, rounds := solveTraced(g, r, Config{Workers: 1})
	if len(rounds) < 2 {
		t.Fatalf("want a multi-iteration run, got %d", len(rounds))
	}
	one, _, _ := solveRounds(g, r, Config{Workers: 1}, 1)
	if got, fresh := rounds[0].Cost, one.Cost(r); !relClose(got, fresh) {
		t.Fatalf("iteration 1: running cost %v, fresh finalized cost %v", got, fresh)
	}
	last := rounds[len(rounds)-1].Cost
	if got := full.Cost(r); !relClose(last, got) {
		t.Fatalf("final traced cost %v != final schedule cost %v", last, got)
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
	final := Solve(g, r, Config{Workers: 1})
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

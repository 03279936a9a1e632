package online

import (
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/workload"
)

// On this pinned rate-heavy churn trace the feature-based auto daemon
// spends less re-solve wall time than the fixed-chitchat daemon. Until
// PR 21 it also ended no costlier (30 760 against 30 819); it no longer
// does, and the two final costs are pinned instead.
//
// The regime is the one the selector was built for. Rate updates drift
// regions mildly (dirt/cost stays below the degraded threshold), so the
// hint routes re-solves to restricted NOSY, which converges much faster
// than CHITCHAT on the extracted regions. Most patches revert here —
// the incrementally maintained schedule is already competitive — and
// every revert doubles the drift threshold, so the nosy daemon also
// stops probing hopeless regions sooner. The chitchat daemon's accepted
// patches reset its streak and keep it re-solving: under the stopping
// rule it accepts 14 and reverts 23 (5 and 17 before) and ends at
// 29 045, 5.8% cheaper than it did; auto moves 30 760 → 30 492 on the
// same 2 accepts and 16 reverts. Whether the selector still earns its
// keep is ROADMAP item 6's measurement (DESIGN.md §10).
//
// Both daemons are fully deterministic at Workers=1 (the costs are exact
// and reproducible); only the wall comparison is timing-based, and the
// pinned cell has a ~2x margin.
func TestAutoDaemonBeatsFixedChitChat(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned acceptance cell is scale-specific; skipping under -short")
	}
	g := graphgen.Social(graphgen.FlickrLike(300, 5))
	base := workload.LogDegree(g, 5)
	init := chitchat.Solve(g, base, chitchat.Config{Workers: 1})
	trace := workload.GenerateChurn(g, base, 2000, workload.ChurnConfig{
		AddFraction: 0.1, RemoveFraction: 0.1, Seed: 5,
	})

	run := func(kind SolverKind) (*Daemon, Stats) {
		t.Helper()
		r := freshRates(g, base)
		d, err := New(init.Clone(), r, Config{
			Solver:         kind,
			MaxRegionNodes: 200,
			DriftThreshold: 0.05,
			CheckEvery:     4,
			BudgetFraction: -1,
			ChitChat:       chitchat.Config{Workers: 1},
			Nosy:           nosy.Config{Workers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyTrace(trace); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("kind=%d: final schedule invalid: %v", kind, err)
		}
		return d, d.Stats()
	}

	fixed, fixedStats := run(SolverChitChat)
	auto, autoStats := run(SolverAuto)

	// The cell is only meaningful if both daemons actually re-solved.
	if n := autoStats.Resolves + autoStats.Reverted; n == 0 {
		t.Fatal("auto daemon never attempted a re-solve; the trace no longer triggers drift")
	}
	if n := fixedStats.Resolves + fixedStats.Reverted; n == 0 {
		t.Fatal("chitchat daemon never attempted a re-solve; the trace no longer triggers drift")
	}

	const wantAuto, wantFixed = 30491.990397163892, 29044.96497850259
	if autoCost, fixedCost := auto.Cost(), fixed.Cost(); !floatsClose(autoCost, wantAuto) || !floatsClose(fixedCost, wantFixed) {
		t.Errorf("final costs auto %v, fixed chitchat %v; pinned %v, %v", autoCost, fixedCost, wantAuto, wantFixed)
	}
	if autoStats.ResolveWall >= fixedStats.ResolveWall {
		t.Errorf("auto spent %v re-solving, fixed chitchat %v; want strictly less",
			autoStats.ResolveWall, fixedStats.ResolveWall)
	}
}

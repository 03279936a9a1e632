package refine_test

import (
	"context"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/graphgen"
	"piggyback/internal/online"
	"piggyback/internal/refine"
	"piggyback/internal/scenario"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

// checkedSolver is a regional solver that holds every patched schedule it
// hands the daemon — what the daemon's refine pass is about to sweep —
// against the reference sweep.
type checkedSolver struct {
	solver.Solver
	t         *testing.T
	recovered *int
}

func (c checkedSolver) SupportsRegions() bool { return true }

func (c checkedSolver) Solve(ctx context.Context, p solver.Problem) (*solver.Result, error) {
	res, err := c.Solver.Solve(ctx, p)
	if res != nil {
		*c.recovered += refine.CheckAgainstReference(c.t, res.Schedule, p.Rates)
	}
	return res, err
}

// Pass against the sweep it replaced on the patched schedule of every
// re-solve of every zoo scenario, at the acceptance geometry (-short:
// flashcrowd only, as the acceptance suite).
func TestPassMatchesReferenceSweepOnZoo(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(300, 11))
	base := workload.LogDegree(g, 5)
	for _, name := range scenario.Default.Names() {
		if testing.Short() && name != scenario.FlashCrowd {
			continue
		}
		trace, err := scenario.Default.Generate(name, g, base, scenario.Params{Ops: 800, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		r := &workload.Rates{
			Prod: append([]float64(nil), base.Prod...),
			Cons: append([]float64(nil), base.Cons...),
		}
		recovered := 0
		d, err := online.New(chitchat.Solve(g, r, chitchat.Config{}), r, online.Config{
			Regional:       checkedSolver{solver.NewChitChat(chitchat.Config{}), t, &recovered},
			DriftThreshold: 0.05,
			CheckEvery:     8,
			BudgetFraction: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyTrace(trace); err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if st.Resolves+st.Reverted == 0 {
			t.Errorf("%s: no re-solve ran", name)
		}
		t.Logf("%s: %d re-solves checked, %d edges recovered", name, st.Resolves+st.Reverted, recovered)
	}
}

package refine_test

import (
	"context"
	"math"
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
// against the reference sweep. It forwards the solver's progress stream,
// so the daemon's stopping rule cuts what it would cut unobserved.
type checkedSolver struct {
	solver.Solver
	t                    *testing.T
	recovered, truncated *int
}

func (c checkedSolver) SupportsRegions() bool { return true }

func (c checkedSolver) ChainProgress(fn func(solver.ProgressEvent)) { solver.Observe(c.Solver, fn) }

func (c checkedSolver) Solve(ctx context.Context, p solver.Problem) (*solver.Result, error) {
	res, err := c.Solver.Solve(ctx, p)
	if res != nil {
		*c.recovered += refine.CheckAgainstReference(c.t, res.Schedule, p.Rates)
		if res.Report.Canceled {
			*c.truncated++
		}
	}
	return res, err
}

// zooPins are online's zoo acceptance pins (online/zoo_test.go): a checker
// that moved a decision, or hid the solve from the stopping rule, misses
// them.
var zooPins = map[string]struct {
	resolves, reverted, amortized int
	cost                          float64
}{
	scenario.Cascade:      {9, 5, 0, 20084.812},
	scenario.Diurnal:      {25, 15, 124, 17006.703},
	scenario.FlashCrowd:   {29, 17, 0, 19600.422},
	scenario.LDBC:         {12, 8, 117, 21338.809},
	scenario.Preferential: {11, 0, 26, 18876.986},
	scenario.RegionChurn:  {3, 2, 0, 18563.532},
}

// Pass against the sweep it replaced on the patched schedule of every
// re-solve of every zoo scenario, cut solves included, at the acceptance
// geometry (-short: flashcrowd only, as the acceptance suite).
func TestPassMatchesReferenceSweepOnZoo(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(300, 11))
	base := workload.LogDegree(g, 5)
	truncated := 0
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
		recovered, cut := 0, 0
		d, err := online.New(chitchat.Solve(g, r, chitchat.Config{}), r, online.Config{
			Regional:       checkedSolver{solver.NewChitChat(chitchat.Config{}), t, &recovered, &cut},
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
		st, pin := d.Stats(), zooPins[name]
		if st.Resolves != pin.resolves || st.Reverted != pin.reverted || st.Amortized != pin.amortized ||
			math.Round(d.Cost()*1000)/1000 != pin.cost {
			t.Errorf("%s: %d accepted, %d reverted, %d amortized at %.3f; pinned %+v", name,
				st.Resolves, st.Reverted, st.Amortized, d.Cost(), pin)
		}
		truncated += cut
		t.Logf("%s: %d re-solves checked, %d of them cut, %d edges recovered", name, st.Resolves+st.Reverted, cut, recovered)
	}
	if truncated == 0 {
		t.Fatal("no cut patch was checked")
	}
}

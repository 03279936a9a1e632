package experiments

import (
	"context"
	"fmt"
	"time"

	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/online"
	"piggyback/internal/scenario"
	"piggyback/internal/solver"
	"piggyback/internal/spar"
	"piggyback/internal/workload"
)

// Zoo sweeps the full solver registry across the adversarial workload
// zoo (internal/scenario) on the Flickr-like graph. Region-capable
// solvers run as the online daemon's regional solver over the live
// trace — their row reports the daemon's final cost, cumulative
// re-solve wall and accept/revert counts. Region-incapable solvers
// batch-solve the materialized post-trace graph — the "what if we
// re-solved from scratch afterwards" reference. SPAR's analytic
// replication cost over the materialized graph closes each scenario
// block. Every scheduling improvement gets judged against this table.
func Zoo(sc Scale) *Table {
	t := &Table{
		Title:  "Adversarial workload zoo — solver registry × scenario registry",
		Note:   "daemon rows: final live cost after the trace; batch rows: from-scratch solve of the materialized graph",
		Header: []string{"scenario", "solver", "mode", "cost", "wall", "re-solves", "reverted"},
	}
	ops := sc.ZooOps
	if ops <= 0 {
		ops = 1200
	}
	g, base := sc.flickr()
	// Every daemon row starts from the same incumbent — a CHITCHAT
	// schedule of the pre-trace graph, what each scenario's acceptance
	// test uses — so it is solved once; online.New clones it per row.
	incumbent := chitchat.Solve(g, base, chitchat.Config{})
	reg := sc.registry()
	for _, scen := range scenario.Default.Names() {
		trace, err := scenario.Default.Generate(scen, g, base, scenario.Params{Ops: ops, Seed: sc.Seed})
		if err != nil {
			t.Rows = append(t.Rows, []string{scen, "", "", "error: " + err.Error(), "", "", ""})
			continue
		}
		finalG, finalR, err := scenario.Materialize(g, base, trace)
		if err != nil {
			t.Rows = append(t.Rows, []string{scen, "", "", "error: " + err.Error(), "", "", ""})
			continue
		}
		for _, name := range reg.Names() {
			sv, err := reg.New(name, solver.Options{Workers: sc.Workers})
			if err != nil {
				continue
			}
			if solver.SupportsRegions(sv) {
				row, rowErr := zooDaemonRow(incumbent, base, trace, sv)
				if rowErr != nil {
					t.Rows = append(t.Rows, []string{scen, name, "daemon", "error: " + rowErr.Error(), "", "", ""})
					continue
				}
				t.Rows = append(t.Rows, append([]string{scen, name}, row...))
				continue
			}
			start := time.Now()
			res, err := sv.Solve(context.Background(), solver.Problem{Graph: finalG, Rates: finalR})
			if err != nil {
				t.Rows = append(t.Rows, []string{scen, name, "batch", "error: " + err.Error(), "", "", ""})
				continue
			}
			t.Rows = append(t.Rows, []string{
				scen, name, "batch",
				f1(res.Report.Cost), wallStr(time.Since(start)), "-", "-",
			})
		}
		t.Rows = append(t.Rows, []string{
			scen, "spar", "analytic",
			f1(spar.Cost(finalG, finalR)), "-", "-", "-",
		})
	}
	return t
}

// zooDaemonRow replays one zoo trace through the online daemon with the
// given regional solver, starting from incumbent, and reports (mode,
// cost, wall, re-solves, reverted). Rates are cloned because the daemon
// mutates them in place.
func zooDaemonRow(incumbent *core.Schedule, base *workload.Rates, trace []workload.ChurnOp, regional solver.Solver) ([]string, error) {
	r := &workload.Rates{
		Prod: append([]float64(nil), base.Prod...),
		Cons: append([]float64(nil), base.Cons...),
	}
	dm, err := online.New(incumbent, r, online.Config{
		Regional:       regional,
		DriftThreshold: 0.05,
		CheckEvery:     8,
		BudgetFraction: -1,
	})
	if err != nil {
		return nil, err
	}
	if err := dm.ApplyTrace(trace); err != nil {
		return nil, err
	}
	if err := dm.Validate(); err != nil {
		return nil, fmt.Errorf("final schedule invalid: %w", err)
	}
	st := dm.Stats()
	return []string{
		"daemon",
		f1(dm.Cost()), wallStr(st.ResolveWall), d(st.Resolves), d(st.Reverted),
	}, nil
}

func wallStr(dur time.Duration) string {
	return dur.Round(time.Millisecond).String()
}

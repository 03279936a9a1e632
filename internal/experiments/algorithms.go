package experiments

import (
	"context"

	"piggyback/internal/baseline"
	"piggyback/internal/graph"
	_ "piggyback/internal/shard" // registers the "shard" solver
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

// Algorithms runs EVERY registered solver on both reference graphs
// through the one shared code path (the solver registry) and tabulates
// cost, improvement over the hybrid baseline, and iteration counts —
// the cross-algorithm summary the paper spreads over §4.2. A solver
// registered by an importing program shows up here automatically.
func Algorithms(sc Scale) *Table {
	t := &Table{
		Title:  "All registered solvers — cost and improvement over FF",
		Note:   "one registry code path; improvement = hybrid cost / solver cost",
		Header: []string{"solver", "graph", "cost", "improvement", "iterations", "hub-covered"},
	}
	for _, item := range []struct {
		name  string
		build func() (*graph.Graph, *workload.Rates)
	}{
		{"flickr-like", sc.flickr},
		{"twitter-like", sc.twitter},
	} {
		g, r := item.build()
		hybrid := baseline.HybridCost(g, r)
		reg := sc.registry()
		for _, name := range reg.Names() {
			sv, err := reg.New(name, solver.Options{Workers: sc.Workers})
			if err != nil {
				continue // unregistered between Names and New: impossible, skip
			}
			res, err := sv.Solve(context.Background(), solver.Problem{Graph: g, Rates: r})
			if err != nil {
				t.Rows = append(t.Rows, []string{name, item.name, "error: " + err.Error(), "", "", ""})
				continue
			}
			t.Rows = append(t.Rows, []string{
				name, item.name,
				f1(res.Report.Cost),
				f3(hybrid / res.Report.Cost),
				d(res.Report.Iterations),
				d(res.Schedule.Counts().Covered),
			})
		}
	}
	return t
}

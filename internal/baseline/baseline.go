// Package baseline implements the request schedules the paper compares
// against: push-all, pull-all, and the hybrid per-edge schedule of
// Silberstein et al. (SIGMOD 2010), which the paper calls FEEDINGFRENZY
// (FF) and uses as its baseline everywhere.
package baseline

import (
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

// PushAll returns the schedule where every edge is served by a push:
// efficient for read-dominated workloads (each query touches only the
// reader's own view).
func PushAll(g *graph.Graph) *core.Schedule {
	s := core.NewSchedule(g)
	g.Edges(func(e graph.EdgeID, _, _ graph.NodeID) bool {
		s.SetPush(e)
		return true
	})
	return s
}

// PullAll returns the schedule where every edge is served by a pull:
// efficient for write-dominated workloads.
func PullAll(g *graph.Graph) *core.Schedule {
	s := core.NewSchedule(g)
	g.Edges(func(e graph.EdgeID, _, _ graph.NodeID) bool {
		s.SetPull(e)
		return true
	})
	return s
}

// Hybrid returns the FEEDINGFRENZY schedule: each edge u → v is served by
// the cheaper of a push (cost rp(u)) and a pull (cost rc(v)). Ties go to
// push. This is the per-edge optimum among direct schedules.
func Hybrid(g *graph.Graph, r *workload.Rates) *core.Schedule {
	s := core.NewSchedule(g)
	s.Finalize(r) // Finalize implements exactly the hybrid rule
	return s
}

// EdgeCost returns c*(u → v) = min(rp(u), rc(v)), the hybrid cost of
// serving one edge directly. Both CHITCHAT and PARALLELNOSY price
// alternatives against it. The builtin min inlines, unlike math.Min, and
// returns its bits for every rate Rates.Validate admits.
func EdgeCost(r *workload.Rates, u, v graph.NodeID) float64 {
	return min(r.Prod[u], r.Cons[v])
}

// HybridCost returns the total cost of the hybrid schedule without
// materializing it.
func HybridCost(g *graph.Graph, r *workload.Rates) float64 {
	total := 0.0
	g.Edges(func(_ graph.EdgeID, u, v graph.NodeID) bool {
		total += EdgeCost(r, u, v)
		return true
	})
	return total
}

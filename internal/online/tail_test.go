package online

import (
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/incremental"
	"piggyback/internal/nosy"
	"piggyback/internal/refine"
	"piggyback/internal/workload"
)

// BenchmarkAttemptTail prices what an attempt's goroutine does between its
// solver returning and the splice, on churn_local's stall: the 768-node
// region around node 1000 of the streamed 120k-edge graph (the region
// chitchat's golden tests solve), its CHITCHAT patch spliced into a
// PARALLELNOSY incumbent. "all" is the whole tail; each other sub-benchmark
// times one step, on the state the steps before it leave:
//
//	splice    core.ApplyPatch: the splice and its repair walk
//	refine    refine.Pass, on the table the repair hands over
//	rebuild   incremental.NewFrom, on the table refine kept current
func BenchmarkAttemptTail(b *testing.B) {
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(120_000, 7))
	r := workload.LogDegree(g, 5)
	base := nosy.Solve(g, r, nosy.Config{})
	sub := graph.Induced(g, graph.KHop(g, []graph.NodeID{1000}, 2, 768))
	patch := chitchat.Solve(sub.G, r.Project(sub.Global), chitchat.Config{})
	const (
		splice = iota
		refined
		rebuilt
	)
	// tail runs the steps from..to-1 on s and sup, the support table each
	// step hands to the next, and returns the table.
	tail := func(s *core.Schedule, sup core.Supports, from, to int) core.Supports {
		for step := from; step < to; step++ {
			switch step {
			case splice:
				var err error
				if _, sup, err = core.ApplyPatch(s, sub, patch); err != nil {
					b.Fatal(err)
				}
			case refined:
				refine.Pass(s, r, sup)
			case rebuilt:
				incremental.NewFrom(s, r, sup)
			}
		}
		return sup
	}
	for _, bc := range []struct {
		name     string
		from, to int
	}{
		{"all", splice, rebuilt + 1},
		{"splice", splice, refined},
		{"refine", refined, rebuilt},
		{"rebuild", rebuilt, rebuilt + 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := base.Clone()
				sup := tail(s, core.Supports{}, splice, bc.from)
				b.StartTimer()
				tail(s, sup, bc.from, bc.to)
			}
		})
	}
}

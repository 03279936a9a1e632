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
//	amortize  the amortizer over the region, on the table refine returns
//	rebuild   incremental.New, on the table both sweeps kept current
func BenchmarkAttemptTail(b *testing.B) {
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(120_000, 7))
	r := workload.LogDegree(g, 5)
	base := nosy.Solve(g, r, nosy.Config{}).Schedule
	sub := graph.Induced(g, graph.KHop(g, []graph.NodeID{1000}, 2, 768))
	patch := chitchat.SolveInduced(sub, r, chitchat.Config{})
	var a amortizer
	const (
		splice = iota
		refined
		amortized
		rebuilt
	)
	// tail runs the steps from..to-1 on s. Each leaves the support table on
	// s for the next (Take and Keep are free on a handed-over table).
	tail := func(s *core.Schedule, from, to int) {
		for step := from; step < to; step++ {
			switch step {
			case splice:
				if _, err := core.ApplyPatch(s, sub, patch, r); err != nil {
					b.Fatal(err)
				}
			case refined:
				_, sup := refine.Pass(s, r)
				s.KeepSupports(sup)
			case amortized:
				sup := s.TakeSupports()
				a.run(s, r, sub.GlobalEdge, sup)
				s.KeepSupports(sup)
			case rebuilt:
				incremental.New(s, r)
			}
		}
	}
	for _, bc := range []struct {
		name     string
		from, to int
	}{
		{"all", splice, rebuilt + 1},
		{"splice", splice, refined},
		{"refine", refined, amortized},
		{"amortize", amortized, rebuilt},
		{"rebuild", rebuilt, rebuilt + 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := base.Clone()
				tail(s, splice, bc.from)
				b.StartTimer()
				tail(s, bc.from, bc.to)
			}
		})
	}
}

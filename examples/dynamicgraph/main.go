// Dynamicgraph: keep an optimized schedule near-optimal while the
// social graph churns, using the online rescheduling daemon — cheap
// incremental patches per op, dirt booked per node, and localized
// re-solves spliced in when a region churns past the threshold (§3.3
// extended; DESIGN.md §7).
//
// The -short flag runs a scaled-down version; CI uses it as the smoke
// test for the online path.
package main

import (
	"context"
	"flag"
	"fmt"

	"piggyback"
)

func main() {
	short := flag.Bool("short", false, "small graph and trace (CI smoke test)")
	flag.Parse()
	nodes, ops := 1200, 4000
	if *short {
		nodes, ops = 250, 800
	}

	g := piggyback.FlickrLikeGraph(nodes, 1)
	r := piggyback.LogDegreeRates(g, 5)

	// Seed schedule and localized re-solver both come from the solver
	// registry — the one code path for algorithm selection.
	cc, err := piggyback.NewSolver("chitchat", piggyback.Options{})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	seedRes, err := cc.Solve(ctx, piggyback.Problem{Graph: g, Rates: r})
	if err != nil {
		panic(err)
	}
	sched := seedRes.Schedule
	trace := piggyback.GenerateChurn(g, r, ops, piggyback.ChurnConfig{Seed: 1})

	// A lower threshold and small regions make the localized re-solves
	// visible on a short trace; the defaults are tuned for long-running
	// service, where re-solving is rarer.
	maxRegion := 120
	if *short {
		maxRegion = 50 // keep one region inside the re-solve budget
	}
	d, err := piggyback.NewOnlineDaemon(sched, r, piggyback.OnlineConfig{
		DriftThreshold: 0.05,
		MaxRegionNodes: maxRegion,
		Regional:       cc,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("graph: %d nodes, %d edges; schedule cost %.1f\n\n",
		g.NumNodes(), g.NumEdges(), d.Cost())

	fmt.Printf("%8s %12s %10s %10s\n", "ops", "cost", "re-solves", "rescues")
	for i, op := range trace {
		if err := d.ApplyCtx(ctx, op); err != nil {
			panic(err)
		}
		if (i+1)%(ops/4) == 0 {
			st := d.Stats()
			fmt.Printf("%8d %12.1f %10d %10d\n",
				i+1, d.Cost(), st.Resolves+st.Reverted, st.Rescues)
		}
	}
	if err := d.Validate(); err != nil {
		panic(err)
	}

	// How good is the maintained schedule, really? Re-solve the churned
	// graph from scratch and compare.
	liveG, _ := d.Snapshot()
	freshRes, err := cc.Solve(ctx, piggyback.Problem{Graph: liveG, Rates: d.Rates()})
	if err != nil {
		panic(err)
	}
	fresh := freshRes.Schedule
	st := d.Stats()
	fmt.Printf("\nfinal: %d live edges after %d adds / %d removes / %d rate updates\n",
		liveG.NumEdges(), st.Adds, st.Removes, st.RateUpdates)
	fmt.Printf("maintained cost %.1f vs from-scratch CHITCHAT %.1f (%.2f%% above)\n",
		d.Cost(), fresh.Cost(d.Rates()), 100*(d.Cost()/fresh.Cost(d.Rates())-1))
	fmt.Printf("localized re-solves: %d accepted, %d reverted, touching %d region edges (%.1f%% of graph)\n",
		st.Resolves, st.Reverted, st.RegionEdges,
		100*float64(st.RegionEdges)/float64(liveG.NumEdges()))
	fmt.Println("\nthe daemon replaces the old rule of thumb (re-optimize at ~1/3 churn):")
	fmt.Println("regions re-solve themselves when their own drift crosses the threshold")
}

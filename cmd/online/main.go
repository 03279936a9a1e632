// Command online runs the online rescheduling daemon over a synthetic
// churn trace and reports its trajectory: maintained cost, localized
// re-solve activity, and the final gap to a from-scratch
// re-optimization of the churned graph.
//
// With -serve it additionally runs the prototype view-store cluster:
// the daemon's accepted re-solves swap the cluster's live schedule
// (netstore.Cluster.Swap), demoing serving + rescheduling end to end, and
// the throughput of the initial vs. final schedule is measured.
//
//	go run ./cmd/online -nodes 2000 -ops 5000 -solver chitchat
//	go run ./cmd/online -nodes 1000 -ops 3000 -serve -servers 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/netstore"
	"piggyback/internal/online"
	_ "piggyback/internal/shard" // registers the "shard" solver
	"piggyback/internal/solver"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 2000, "graph size (Flickr-like shape)")
	ops := flag.Int("ops", 5000, "churn trace length")
	seed := flag.Int64("seed", 42, "graph and trace seed")
	solverName := flag.String("solver", "chitchat", "localized re-solver: any registered solver supporting regions")
	threshold := flag.Float64("threshold", 0, "drift threshold (0 = default)")
	k := flag.Int("k", 0, "region hop radius (0 = default)")
	maxRegion := flag.Int("maxregion", 0, "region node cap (0 = default)")
	every := flag.Int("every", 0, "ops between drift checks (0 = default)")
	workers := flag.Int("workers", 0, "workers of a parallel -solver (0 = GOMAXPROCS; chitchat uses them for its seed phase only)")
	report := flag.Int("report", 1000, "ops between progress lines")
	addFrac := flag.Float64("adds", 0, "fraction of ops that add edges (0 = default)")
	rmFrac := flag.Float64("removes", 0, "fraction of ops that remove edges (0 = default)")
	serve := flag.Bool("serve", false, "run a live view-store cluster; accepted re-solves swap its schedule")
	servers := flag.Int("servers", 8, "view-store servers (with -serve)")
	fallback := flag.String("fallback", "", "circuit-breaker fallback solver; quarantines a failing -solver")
	breakerN := flag.Int("breaker", 0, "consecutive solver failures before quarantine (0 = default, with -fallback)")
	telem := flag.String("telemetry", "", "serve /metrics, /metrics.txt and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	linger := flag.Duration("linger", 0, "keep the -telemetry endpoint up this long after the run completes")
	flag.Parse()

	// The daemon resolves no names: -solver and -fallback are looked up
	// here, in the one registry. Any solver that supports Problem.Region
	// can drive the daemon's re-solves.
	regionSolver := func(flagName, name string) solver.Solver {
		sv, err := solver.Default.New(name, solver.Options{Workers: *workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !solver.SupportsRegions(sv) {
			fmt.Fprintf(os.Stderr, "-%s %s cannot re-solve regions (region-capable: chitchat, nosy)\n", flagName, name)
			os.Exit(2)
		}
		return sv
	}
	cfg := online.Config{
		K:                *k,
		DriftThreshold:   *threshold,
		CheckEvery:       *every,
		MaxRegionNodes:   *maxRegion,
		Regional:         regionSolver("solver", *solverName),
		BreakerThreshold: *breakerN,
	}
	if *fallback != "" {
		cfg.Fallback = regionSolver("fallback", *fallback)
	}

	// -telemetry: one registry feeds the daemon's online_* series and a
	// liveness gauge; the tracer records the deterministic re-solve span
	// tree. The endpoint is up before the first op, and every series is
	// pre-registered so a scrape during warmup sees the full inventory
	// at zero.
	if *telem != "" {
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		cfg.Tracer = telemetry.NewTracer(*seed)
		cfg.Events = &telemetry.EventLog{}
		reg.Gauge("piggyback_up").Set(1)
		ln, err := telemetry.Serve(*telem, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Printf("telemetry: http://%s/metrics (pprof at /debug/pprof/)\n", ln.Addr())
		if *linger > 0 {
			defer time.Sleep(*linger)
		}
	}

	g := graphgen.Social(graphgen.FlickrLike(*nodes, *seed))
	r := workload.LogDegree(g, 5)
	fmt.Printf("graph: %d nodes, %d edges; solving initial schedule…\n",
		g.NumNodes(), g.NumEdges())
	init := chitchat.Solve(g, r, chitchat.Config{})
	trace := workload.GenerateChurn(g, r, *ops, workload.ChurnConfig{
		Seed: *seed, AddFraction: *addFrac, RemoveFraction: *rmFrac,
	})

	d, err := online.New(init, r, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// -serve: the in-process tier executes the live schedule; every accepted
	// splice goes live via an atomic plan swap, no drain needed.
	var cluster *netstore.Cluster
	swaps := 0
	if *serve {
		cluster, err = netstore.NewCluster(init, netstore.ClusterOptions{Servers: *servers})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cluster.Close()
		d.OnSplice = func(_ *graph.Graph, s *core.Schedule) {
			if err := cluster.Swap(s); err != nil {
				fmt.Fprintf(os.Stderr, "swap: %v\n", err)
				return
			}
			swaps++
		}
		fmt.Printf("serving: %d view-store servers executing the live schedule\n", *servers)
		fmt.Printf("initial throughput: %.0f req/s/client\n", measure(cluster, r, *seed))
	}

	fmt.Printf("initial: cost %.1f\n\n", d.Cost())
	fmt.Printf("%8s %12s %9s %9s %12s\n",
		"ops", "cost", "resolves", "reverted", "region edges")
	ctx := context.Background()
	for i, op := range trace {
		if err := d.ApplyCtx(ctx, op); err != nil {
			fmt.Fprintf(os.Stderr, "op %d: %v\n", i, err)
			os.Exit(1)
		}
		if (i+1)%*report == 0 {
			st := d.Stats()
			fmt.Printf("%8d %12.1f %9d %9d %12d\n",
				i+1, d.Cost(), st.Resolves, st.Reverted, st.RegionEdges)
		}
	}
	d.Flush(ctx) // splice the attempt still in flight before reading the end state
	if err := d.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "final schedule invalid: %v\n", err)
		os.Exit(1)
	}

	liveG, liveS := d.Snapshot()
	// The from-scratch comparison uses the daemon's CURRENT rates —
	// the churn stream may have rescaled user activity.
	freshCost := chitchat.Solve(liveG, d.Rates(), chitchat.Config{}).Cost(d.Rates())
	st := d.Stats()
	fmt.Printf("\nfinal: %d live edges, cost %.1f (snapshot %.1f)\n",
		liveG.NumEdges(), d.Cost(), liveS.Cost(d.Rates()))
	fmt.Printf("from-scratch CHITCHAT on final graph: %.1f → daemon is %.2f%% above\n",
		freshCost, 100*(d.Cost()-freshCost)/freshCost)
	fmt.Printf("hybrid baseline on final graph: %.1f\n", baseline.HybridCost(liveG, d.Rates()))
	fmt.Printf("localized re-solves: %d accepted, %d reverted, %d rescues\n",
		st.Resolves, st.Reverted, st.Rescues)
	if st.Breaker != nil {
		b := st.Breaker
		fmt.Printf("breaker: %d failures, %d trips, %d fallback solves, %d probes, %d closes (open: %v)\n",
			b.Failures, b.Trips, b.FallbackSolves, b.Probes, b.Closes, b.Open)
	}
	fmt.Printf("region edges re-solved: %d (%.1f%% of final live edges)\n",
		st.RegionEdges, 100*float64(st.RegionEdges)/float64(liveG.NumEdges()))
	if st.DriftChecks > 0 {
		fmt.Printf("drift checks: %d, %d extracted a region (%.1f%%), the rest read the remembered one\n",
			st.DriftChecks, st.RegionExtractions, 100*float64(st.RegionExtractions)/float64(st.DriftChecks))
	}
	if *serve {
		// The cluster now executes the last accepted splice; swap in the
		// final maintained snapshot so the measurement reflects the
		// daemon's end state exactly.
		if err := cluster.Swap(liveS); err != nil {
			fmt.Fprintf(os.Stderr, "final swap: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("serving: %d live schedule swaps during the trace\n", swaps)
		fmt.Printf("final throughput: %.0f req/s/client (schedule swapped without draining)\n",
			measure(cluster, d.Rates(), *seed))
	}
}

// measure replays a short sampled trace and reports per-client
// throughput on the cluster's current plan.
func measure(c *netstore.Cluster, r *workload.Rates, seed int64) float64 {
	t := netstore.GenerateTrace(r, 4000, seed)
	return netstore.MeasureThroughput(c, t, 4).PerClientRate
}

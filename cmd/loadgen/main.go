// Command loadgen replays churn against a live netstore TCP cluster
// while the online daemon reschedules underneath it — the live SLO
// measurement: client-visible query/update latency (p50/p99) and bytes
// on the wire, under an optional pinned fault plan on server 0.
//
// One goroutine interleaves churn ops (through the daemon) with client
// requests (through the TCP tier), so for a fixed seed and fault plan
// the run is deterministic end to end: -spantree and -snapshot dump the
// daemon's re-solve span tree and the non-timing metric snapshot, which
// must be byte-identical across runs (the CI smoke diffs two runs).
//
//	go run ./cmd/loadgen -nodes 400 -ops 1500 -requests 2000 -servers 3 -faults
//	go run ./cmd/loadgen -nodes 2000 -ops 5000 -telemetry 127.0.0.1:9090 -linger 1m
//	go run ./cmd/loadgen -scenario flashcrowd -snapshot
//	go run ./cmd/loadgen -timedtree
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"time"

	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/fault"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/netstore"
	"piggyback/internal/online"
	"piggyback/internal/scenario"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 400, "graph size (Flickr-like shape)")
	ops := flag.Int("ops", 1500, "churn trace length fed to the daemon")
	requests := flag.Int("requests", 2000, "client requests interleaved with the churn")
	servers := flag.Int("servers", 3, "netstore TCP servers")
	seed := flag.Int64("seed", 7, "graph, trace, request and jitter seed")
	scen := flag.String("scenario", "", "replay a zoo scenario (internal/scenario) instead of the built-in churn trace; empty lists: "+strings.Join(scenario.Default.Names(), "|"))
	faults := flag.Bool("faults", false, "inject the pinned fault plan on server 0 (delays, a reset, a dropped reply)")
	timeout := flag.Duration("timeout", 150*time.Millisecond, "client round-trip timeout")
	telem := flag.String("telemetry", "", "serve /metrics and /debug/pprof on this address during the run")
	linger := flag.Duration("linger", 0, "keep the -telemetry endpoint up this long after the run completes")
	spantree := flag.Bool("spantree", false, "print the daemon's deterministic re-solve span tree and its decision record per re-solve")
	timedtree := flag.Bool("timedtree", false, "print the span tree with each span's wall time (differs run to run)")
	snapshot := flag.Bool("snapshot", false, "print the non-timing metric snapshot (byte-identical across seeded runs)")
	flag.Parse()

	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(*seed)
	var records []string // the daemon's decision records, one per re-solve
	if *telem != "" {
		reg.Gauge("piggyback_up").Set(1)
		ln, err := telemetry.Serve(*telem, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Printf("telemetry: http://%s/metrics\n", ln.Addr())
		if *linger > 0 {
			defer time.Sleep(*linger)
		}
	}

	// Workload: graph + rates + initial schedule, then a churn trace for
	// the daemon and a seeded request mix for the client.
	g := graphgen.Social(graphgen.FlickrLike(*nodes, *seed))
	r := workload.LogDegree(g, 5)
	init := chitchat.Solve(g, r, chitchat.Config{})
	var trace []workload.ChurnOp
	if *scen != "" {
		// Zoo scenarios emit the same churn-op stream the daemon already
		// consumes, so the scenario's phase spans land in the same
		// deterministic tracer as the re-solve spans below.
		var err error
		trace, err = scenario.Default.Generate(*scen, g, r,
			scenario.Params{Ops: *ops, Seed: *seed, Tracer: tr, Metrics: reg})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		trace = scenario.GenerateChurn(g, r, *ops, scenario.ChurnConfig{Seed: *seed})
	}

	// Serving tier: *servers TCP servers; with -faults, server 0 sits
	// behind the pinned PR-8 chaos plan (ambient delays every connection,
	// one mid-stream reset, one silently dropped reply), so the latency
	// histogram captures retry and failover cost, not just happy-path RTT.
	plan := &fault.Plan{Rules: []fault.Rule{
		{Kind: fault.KindDelay, Conn: -1, Op: 40, Count: 3, Delay: 2 * time.Millisecond},
		{Kind: fault.KindDelay, Conn: -1, Op: 200, Count: 2, Delay: 3 * time.Millisecond},
		{Kind: fault.KindReset, Conn: 0, Op: 120},
		{Kind: fault.KindDrop, Conn: 1, Op: 150},
	}}
	tier := make([]*netstore.Server, *servers)
	addrs := make([]string, *servers)
	for i := range tier {
		scfg := netstore.ServerConfig{Metrics: reg, MetricsLabel: fmt.Sprint(i)}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if i == 0 && *faults {
			ln = plan.WrapListener(ln)
		}
		tier[i] = netstore.NewServerOn(ln, scfg)
		addrs[i] = tier[i].Addr()
	}
	cl, err := netstore.DialConfigured(init, addrs, netstore.DialConfig{
		Seed: *seed, Timeout: *timeout,
		BackoffBase: time.Millisecond, BackoffMax: 8 * time.Millisecond,
		Metrics: reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Daemon: full telemetry, and every accepted splice swaps the client
	// onto the re-solved plan and publishes a new plan epoch to the tier —
	// the client's per-server epoch gauges then record the rollout as its
	// requests observe it.
	epoch := uint32(0)
	d, err := online.New(init, r, online.Config{
		DriftThreshold: 0.02, CheckEvery: 8, BudgetFraction: -1,
		Metrics: reg, Tracer: tr, Events: func(rec string) { records = append(records, rec) },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	d.OnSplice = func(_ *graph.Graph, s *core.Schedule) {
		if err := cl.Swap(s); err != nil {
			fmt.Fprintf(os.Stderr, "swap: %v\n", err)
			os.Exit(1)
		}
		epoch++
		for _, s := range tier {
			s.SetEpoch(epoch)
		}
	}

	// Request mix: seeded, interleaved with the churn at a fixed ratio —
	// one goroutine drives everything, so the run is deterministic.
	qLat := reg.Histogram("loadgen_query_latency_seconds", telemetry.LatencyBuckets)
	uLat := reg.Histogram("loadgen_update_latency_seconds", telemetry.LatencyBuckets)
	queries := reg.Counter("loadgen_queries_total")
	updates := reg.Counter("loadgen_updates_total")
	reqErrs := reg.Counter("loadgen_request_errors_total")
	rng := rand.New(rand.NewSource(*seed))
	issued, budget := 0, 0
	start := time.Now()
	for i, op := range trace {
		if err := d.Apply(op); err != nil {
			fmt.Fprintf(os.Stderr, "op %d: %v\n", i, err)
			os.Exit(1)
		}
		// Accumulator keeps requests evenly spread across the trace.
		budget += *requests
		for budget >= *ops && issued < *requests {
			budget -= *ops
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			t0 := time.Now()
			if issued%4 == 3 {
				err = cl.Update(u, netstore.Event{User: u, ID: int64(issued), TS: int64(issued)})
				uLat.Observe(time.Since(t0).Seconds())
				updates.Inc()
			} else {
				_, err = cl.Query(u)
				qLat.Observe(time.Since(t0).Seconds())
				queries.Inc()
			}
			if err != nil {
				reqErrs.Inc()
			}
			issued++
		}
	}
	// The attempt the last check boundary started is spliced now, so the
	// printed counts, tree and records cover the whole trace.
	d.Flush(context.Background())
	wall := time.Since(start)
	if err := d.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "final schedule invalid: %v\n", err)
		os.Exit(1)
	}
	cl.Close()
	cst := cl.Stats()
	var srvRead, srvWritten int64
	for _, s := range tier {
		st := s.Stats()
		srvRead += st.BytesRead
		srvWritten += st.BytesWritten
		s.Close()
	}

	st := d.Stats()
	fmt.Printf("\nchurn: %d ops, %d accepted re-solves, %d reverted, cost %.1f\n",
		st.Ops, st.Resolves, st.Reverted, d.Cost())
	fmt.Printf("requests: %d queries, %d updates, %d errors in %v\n",
		queries.Value(), updates.Value(), reqErrs.Value(), wall.Round(time.Millisecond))
	fmt.Printf("query latency: p50 %.3fms  p99 %.3fms\n",
		1000*qLat.Quantile(0.5), 1000*qLat.Quantile(0.99))
	fmt.Printf("update latency: p50 %.3fms  p99 %.3fms\n",
		1000*uLat.Quantile(0.5), 1000*uLat.Quantile(0.99))
	fmt.Printf("bytes on wire: client %d out / %d in; servers %d in / %d out\n",
		cst.BytesWritten, cst.BytesRead, srvRead, srvWritten)
	fmt.Printf("client resilience: %d retries, %d redials, %d parked, %d replayed, %d degraded\n",
		cst.Retries, cst.Redials, cst.Parked, cst.Replayed, cst.DegradedQueries)
	if *faults {
		fmt.Printf("faults fired on server 0: %d\n", len(plan.Fired()))
	}
	fmt.Printf("plan rollout: %d epochs published\n", epoch)

	if *spantree {
		// A wall time: above the marker the byte-identical output starts at.
		stall := reg.Histogram("online_stall_seconds", telemetry.LatencyBuckets)
		fmt.Printf("re-solve stall: p50 %.1fms over %d stalls\n", 1000*stall.Quantile(0.5), stall.Count())
		fmt.Printf("\n--- span tree (deterministic) ---\n%s", tr.Tree())
		fmt.Printf("\n--- re-solve decisions (deterministic) ---\n%s\n", strings.Join(records, "\n"))
	}
	if *timedtree {
		fmt.Printf("\n--- span tree (timed) ---\n%s", tr.TimedTree())
	}
	if *snapshot {
		fmt.Printf("\n--- non-timing snapshot (deterministic) ---\n%s", reg.Snapshot().NonTiming().PromText())
	}
}

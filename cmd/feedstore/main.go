// Command feedstore runs the networked prototype end to end: it starts a
// TCP data-store tier, computes (or loads) a request schedule, replays a
// synthetic workload through Algorithm-3 clients, and reports actual
// throughput and latency percentiles — the §4.3 experiment as a single
// binary.
//
// Usage:
//
//	feedstore -nodes 2000 -servers 8 -algo nosy -requests 20000
//	feedstore -graph g.bin -sched s.pgs -servers 16
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/graphio"
	"piggyback/internal/netstore"
	"piggyback/internal/schedio"
	_ "piggyback/internal/shard" // registers the "shard" solver
	"piggyback/internal/solver"
	"piggyback/internal/stats"
	"piggyback/internal/workload"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "binary graph file (default: generate flickr-like)")
		schedPath = flag.String("sched", "", "schedule file from schedio (default: compute with -algo)")
		nodes     = flag.Int("nodes", 2000, "nodes for the generated graph")
		seed      = flag.Int64("seed", 1, "seed for generation, workload and placement")
		algo      = flag.String("algo", "nosy", "schedule algorithm: "+strings.Join(solver.Default.Names(), " | "))
		ratio     = flag.Float64("ratio", workload.DefaultReadWriteRatio, "read/write ratio")
		servers   = flag.Int("servers", 8, "TCP data-store servers")
		clients   = flag.Int("clients", 8, "concurrent client connections")
		requests  = flag.Int("requests", 20000, "total requests to replay")
	)
	flag.Parse()

	g := loadOrGenerate(*graphPath, *nodes, *seed)
	r := workload.LogDegree(g, *ratio)
	s := loadOrCompute(*schedPath, g, r, *algo)
	if err := s.Validate(); err != nil {
		fatalf("schedule invalid: %v", err)
	}
	fmt.Printf("graph %d nodes / %d edges; schedule %s; improvement %.3fx over hybrid\n",
		g.NumNodes(), g.NumEdges(), *algo, baseline.HybridCost(g, r)/s.Cost(r))

	// Start the TCP tier.
	addrs := make([]string, *servers)
	var srvs []*netstore.Server
	for i := range addrs {
		srv, err := netstore.NewServer("127.0.0.1:0")
		if err != nil {
			fatalf("starting server %d: %v", i, err)
		}
		srvs = append(srvs, srv)
		addrs[i] = srv.Addr()
	}
	defer func() {
		for _, srv := range srvs {
			srv.Close()
		}
	}()
	fmt.Printf("started %d TCP data-store servers\n", len(addrs))

	// Replay the workload from concurrent clients, collecting latencies.
	trace := netstore.GenerateTrace(r, *requests, *seed)
	lat := make([][]float64, *clients)
	var wg sync.WaitGroup
	chunk := (len(trace) + *clients - 1) / *clients
	start := time.Now()
	for k := 0; k < *clients; k++ {
		lo, hi := k*chunk, (k+1)*chunk
		if hi > len(trace) {
			hi = len(trace)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			cl, err := netstore.DialWithSeed(s, addrs, 0)
			if err != nil {
				fatalf("client %d: %v", k, err)
			}
			defer cl.Close()
			for i := lo; i < hi; i++ {
				req := trace[i]
				t0 := time.Now()
				if req.IsUpdate {
					err = cl.Update(req.User, netstore.Event{User: req.User, ID: int64(i), TS: int64(i)})
				} else {
					_, err = cl.Query(req.User)
				}
				if err != nil {
					fatalf("request %d: %v", i, err)
				}
				lat[k] = append(lat[k], float64(time.Since(t0)))
			}
		}(k, lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	rate := float64(len(trace)) / elapsed.Seconds()
	fmt.Printf("replayed %d requests from %d clients in %v\n", len(trace), *clients, elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f req/s total, %.0f req/s per client\n", rate, rate/float64(*clients))
	fmt.Printf("latency: p50 %v  p95 %v  p99 %v\n",
		time.Duration(stats.Percentile(all, 50)).Round(time.Microsecond),
		time.Duration(stats.Percentile(all, 95)).Round(time.Microsecond),
		time.Duration(stats.Percentile(all, 99)).Round(time.Microsecond))
}

func loadOrGenerate(path string, nodes int, seed int64) *graph.Graph {
	if path == "" {
		return graphgen.Social(graphgen.FlickrLike(nodes, seed))
	}
	f, err := os.Open(path)
	if err != nil {
		fatalf("opening graph: %v", err)
	}
	defer f.Close()
	g, err := graphio.ReadBinary(bufio.NewReader(f))
	if err != nil {
		fatalf("reading graph: %v", err)
	}
	return g
}

func loadOrCompute(path string, g *graph.Graph, r *workload.Rates, algo string) *core.Schedule {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			fatalf("opening schedule: %v", err)
		}
		defer f.Close()
		s, err := schedio.Read(bufio.NewReader(f), g)
		if err != nil {
			fatalf("reading schedule: %v", err)
		}
		return s
	}
	sv, err := solver.Default.New(algo, solver.Options{})
	if err != nil {
		fatalf("%v", err)
	}
	res, err := sv.Solve(context.Background(), solver.Problem{Graph: g, Rates: r})
	if err != nil {
		fatalf("solving: %v", err)
	}
	return res.Schedule
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "feedstore: "+format+"\n", args...)
	os.Exit(1)
}

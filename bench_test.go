package piggyback

// Plain `go test -bench` entry points for profiling, ungated and
// unrecorded: one per table or figure of the paper's evaluation at the
// Quick scale (DESIGN.md §4 has the index), one per algorithmic kernel,
// and the ablations of DESIGN.md §6. "Did this change make it slower?"
// is the repo benchmark's question (README, "Benchmarks").
//
//	go test -run '^$' -bench . -benchmem

import (
	"context"
	"sort"
	"syscall"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/densest"
	"piggyback/internal/experiments"
	"piggyback/internal/graphgen"
	"piggyback/internal/netstore"
	"piggyback/internal/nosy"
	"piggyback/internal/partition"
	"piggyback/internal/sampling"
	"piggyback/internal/workload"
)

// ---- Evaluation tables and figures (§4) ----

func benchFigure(b *testing.B, fig func(experiments.Scale) *experiments.Table) {
	for i := 0; i < b.N; i++ {
		fig(experiments.Quick)
	}
}

func benchFig9(b *testing.B, m experiments.SampleMethod) {
	benchFigure(b, func(sc experiments.Scale) *experiments.Table { return experiments.Fig9(sc, m) })
}

func BenchmarkDatasets(b *testing.B)                     { benchFigure(b, experiments.Datasets) }
func BenchmarkFig4PredictedImprovement(b *testing.B)     { benchFigure(b, experiments.Fig4) }
func BenchmarkFig5IncrementalUpdates(b *testing.B)       { benchFigure(b, experiments.Fig5) }
func BenchmarkFig7PlacementAwareThroughput(b *testing.B) { benchFigure(b, experiments.Fig7) }
func BenchmarkFig8LoadBalance(b *testing.B)              { benchFigure(b, experiments.Fig8) }
func BenchmarkFig9aRandomWalkSamples(b *testing.B)       { benchFig9(b, experiments.RandomWalkSampling) }
func BenchmarkFig9bBFSSamples(b *testing.B)              { benchFig9(b, experiments.BFSSampling) }

func BenchmarkFig6PrototypeThroughput(b *testing.B) {
	sc := experiments.Quick
	sc.PrototypeRequests = 2000
	for i := 0; i < b.N; i++ {
		experiments.Fig6(sc)
	}
}

// ---- Algorithm micro-benchmarks ----

// benchGraph is the Quick-scale input: the 800-node Flickr-like preset.
func benchGraph() (*Graph, *Rates) {
	g := FlickrLikeGraph(800, 7)
	return g, LogDegreeRates(g, 5)
}

// One worker: schedules are byte-identical across worker counts
// (nosy.TestWorkerCountInvariance), and the repo benchmark's nosy.scale
// measures what a second one buys.
func BenchmarkNosyWorkers1(b *testing.B) {
	g, r := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nosy.Solve(g, r, nosy.Config{Workers: 1})
	}
}

// The dense case: the ≈56k-edge, 1.3k-node streamed Flickr-like graph the
// repo benchmark's solve_batch workload solves, where a commit's endpoints
// have hundreds of neighbours and the rule for what a commit dirties
// decides a round's cost (nosy.TestEvalsAndRoundsPinned pins the count).
func BenchmarkNosyDenseWorkers1(b *testing.B) {
	g := StreamSocialGraph(FlickrLikeEdges(60000, 7))
	r := LogDegreeRates(g, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nosy.Solve(g, r, nosy.Config{Workers: 1})
	}
}

func BenchmarkChitChat(b *testing.B) {
	g := FlickrLikeGraph(400, 7)
	r := LogDegreeRates(g, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chitchat.Solve(g, r, chitchat.Config{})
	}
}

// hubInstance is one large densest-subgraph instance: the hub-graph of
// the highest-degree node of a 2000-node Twitter-like graph.
func hubInstance() densest.Instance {
	g := TwitterLikeGraph(2000, 3)
	var hub NodeID
	best := -1
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.InDegree(NodeID(u)) + g.OutDegree(NodeID(u)); d > best {
			best, hub = d, NodeID(u)
		}
	}
	r := LogDegreeRates(g, 5)
	xs := g.InNeighbors(hub)
	ys := g.OutNeighbors(hub)
	inst := densest.Instance{N: len(xs) + len(ys) + 1}
	inst.Weight = make([]float64, inst.N)
	hv := int32(len(xs) + len(ys))
	for i, x := range xs {
		inst.Weight[i] = r.Prod[x]
		inst.Edges = append(inst.Edges, [2]int32{int32(i), hv})
	}
	for j, y := range ys {
		inst.Weight[len(xs)+j] = r.Cons[y]
		inst.Edges = append(inst.Edges, [2]int32{hv, int32(len(xs) + j)})
	}
	return inst
}

func BenchmarkDensestSubgraphPeel(b *testing.B) {
	inst := hubInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		densest.Peel(inst, nil)
	}
}

// Decremental oracle vs fresh Peel on the same hub instance, after a burst
// of element removals: the fresh path pays the full instance (re)build per
// solve, the decremental path re-peels the live sub-instance over its CSR.
func BenchmarkDensestDecrementalResolve(b *testing.B) {
	d := densest.NewDecremental(hubInstance())
	for ei := 0; ei < d.NumEdges(); ei += 3 {
		d.RemoveEdge(ei)
	}
	var sc densest.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Solve(&sc)
	}
}

func BenchmarkGraphGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TwitterLikeGraph(2000, int64(i))
	}
}

func BenchmarkRandomWalkSample(b *testing.B) {
	g := TwitterLikeGraph(3000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampling.RandomWalk(g, 5000, int64(i))
	}
}

func BenchmarkPlacementCost(b *testing.B) {
	g, r := benchGraph()
	s := baseline.Hybrid(g, r)
	a := partition.Hash(g.NumNodes(), 256, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.Cost(s, r, a)
	}
}

func BenchmarkPrototypeRequests(b *testing.B) {
	g, r := benchGraph()
	pn, _ := ParallelNosy(g, r, NosyConfig{})
	c, err := netstore.NewCluster(pn, netstore.ClusterOptions{Servers: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	trace := netstore.GenerateTrace(r, 4096, 1)
	b.ResetTimer()
	cl := c.NewClient()
	for i := 0; i < b.N; i++ {
		req := trace[i%len(trace)]
		if req.IsUpdate {
			cl.Update(req.User, netstore.Event{User: req.User, ID: int64(i), TS: int64(i)})
		} else {
			cl.Query(req.User)
		}
	}
}

// CommonInEdges: the balanced case exercises the linear merge, the
// skewed case the galloping path (celebrity in-list vs a normal user's).
func BenchmarkCommonInEdges(b *testing.B) {
	g := TwitterLikeGraph(3000, 7)
	// Balanced: rank the nodes by in-degree and take a pair from the
	// middle of the distribution.
	type nd struct {
		v NodeID
		d int
	}
	var nodes []nd
	for u := 0; u < g.NumNodes(); u++ {
		nodes = append(nodes, nd{NodeID(u), g.InDegree(NodeID(u))})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].d > nodes[j].d })
	// Skewed: the celebrity (max in-degree) against a low-degree node.
	var celeb, low NodeID
	best, worst := -1, 1<<30
	for u := 0; u < g.NumNodes(); u++ {
		d := g.InDegree(NodeID(u))
		if d > best {
			best, celeb = d, NodeID(u)
		}
		if d >= 2 && d < worst {
			worst, low = d, NodeID(u)
		}
	}
	for _, p := range []struct {
		name string
		a, c NodeID
	}{
		{"Balanced", nodes[len(nodes)/4].v, nodes[len(nodes)/4+1].v},
		{"Skewed", celeb, low},
	} {
		b.Run(p.name, func(b *testing.B) {
			var xs []NodeID
			var ea, eb []EdgeID
			for i := 0; i < b.N; i++ {
				xs, ea, eb = g.CommonInEdges(p.a, p.c, 0, xs[:0], ea[:0], eb[:0])
			}
		})
	}
}

// ---- Ablations (design choices from DESIGN.md §6) ----

// One PARALLELNOSY solve per design choice, each reporting its
// improvement over hybrid and its rounds next to its time: phase 3's
// sub-hub-graph rescue against all-or-nothing locks, and a tight §4.2
// bound b against the default. Social/ErdosRenyi is the null model:
// piggybacking feeds on co-subscription structure, and on a uniform
// random graph of the same density hubs barely exist and the gain falls
// from ≈2× to ≈1.05× — the argument for trusting the synthetic stand-ins
// (preferential attachment without triadic closure still yields hubs;
// only uniform wiring destroys the effect). ZipfActivity: does the gain
// survive when celebrities are not necessarily the busiest producers?
func BenchmarkAblationNosy(b *testing.B) {
	g, r := benchGraph()
	soc := FlickrLikeGraph(600, 9)
	er := graphgen.ErdosRenyi(600, soc.NumEdges(), 9)
	for _, a := range []struct {
		name string
		g    *Graph
		r    *Rates
		cfg  nosy.Config
	}{
		{"PartialCommits", g, r, nosy.Config{}},
		{"NoPartialCommits", g, r, nosy.Config{DisablePartialCommits: true}},
		{"CrossEdgeBound16", g, r, nosy.Config{MaxCrossEdges: 16}},
		{"Social", soc, LogDegreeRates(soc, 5), nosy.Config{}},
		{"ErdosRenyi", er, LogDegreeRates(er, 5), nosy.Config{}},
		{"ZipfActivity", soc, workload.Zipf(soc.NumNodes(), 1.5, 5, 9), nosy.Config{}},
	} {
		b.Run(a.name, func(b *testing.B) {
			var res nosy.Result
			for i := 0; i < b.N; i++ {
				res = nosy.Solve(a.g, a.r, a.cfg)
			}
			b.ReportMetric(baseline.HybridCost(a.g, a.r)/res.Schedule.Cost(a.r), "improvement")
			b.ReportMetric(float64(len(res.Iterations)), "rounds")
		})
	}
}

// CHITCHAT oracle: exact brute force vs factor-2 peeling on a small graph.
func BenchmarkAblationChitChatOracle(b *testing.B) {
	g := graphgen.Social(graphgen.Config{
		Nodes: 60, AvgFollows: 4, TriadProb: 0.6, Reciprocity: 0.4, Seed: 5,
	})
	r := LogDegreeRates(g, 5)
	for _, exact := range []bool{true, false} {
		name := map[bool]string{true: "Exact", false: "Peel"}[exact]
		b.Run(name, func(b *testing.B) {
			var s *Schedule
			for i := 0; i < b.N; i++ {
				s = chitchat.Solve(g, r, chitchat.Config{ExactOracle: exact})
			}
			b.ReportMetric(baseline.HybridCost(g, r)/s.Cost(r), "improvement")
		})
	}
}

// ---- Sharded million-edge solve (the PR-6 scale acceptance bench) ----

// BenchmarkShardSolve1M solves a ≥1M-edge streaming-generated Flickr-like
// graph end to end through the registered shard solver — the paper's
// evaluation scale on one machine. Peak RSS is reported as a metric
// because bounding it is the point: one live shard subgraph per worker
// keeps memory O(active shard), not O(graph). Nothing tracks the number
// (91 MB at 1.18M edges, DESIGN.md §4) until the repo benchmark has a
// ≥1M-edge layer (ROADMAP item 8).
func BenchmarkShardSolve1M(b *testing.B) {
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(1_100_000, 1))
	if g.NumEdges() < 1_000_000 {
		b.Fatalf("generator produced %d edges, need ≥1M", g.NumEdges())
	}
	r := workload.LogDegree(g, workload.DefaultReadWriteRatio)
	sv, err := NewSolver("shard", Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Report.Cost, "cost")
		b.ReportMetric(float64(res.Report.Iterations), "shards")
	}
	b.StopTimer()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		// Linux reports ru_maxrss in KiB.
		b.ReportMetric(float64(ru.Maxrss)/1024, "peakRSS-MB")
	}
}

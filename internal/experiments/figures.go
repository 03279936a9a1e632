package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/incremental"
	"piggyback/internal/netstore"
	"piggyback/internal/nosy"
	"piggyback/internal/partition"
	"piggyback/internal/sampling"
	"piggyback/internal/stats"
	"piggyback/internal/workload"
)

// Datasets reproduces the §4.1 dataset description for the synthetic
// stand-ins (the original crawls are proprietary; see DESIGN.md).
func Datasets(sc Scale) *Table {
	t := &Table{
		Title:  "Datasets (§4.1) — synthetic stand-ins",
		Note:   "paper: flickr 2.4M nodes / 71M edges, twitter 83M nodes / 1.4B edges",
		Header: []string{"graph", "nodes", "edges", "avg-deg", "max-out", "reciprocity", "clustering"},
	}
	for _, item := range []struct {
		name string
		g    *graph.Graph
	}{
		{"flickr-like", mustGraph(sc.flickr())},
		{"twitter-like", mustGraph(sc.twitter())},
	} {
		rng := rand.New(rand.NewSource(sc.Seed))
		s := item.g.ComputeStats(500, rng)
		t.Rows = append(t.Rows, []string{
			item.name, d(s.Nodes), d(s.Edges), f1(s.AvgOutDegree),
			d(s.MaxOutDegree), f3(s.Reciprocity), f3(s.ClusteringCoef),
		})
	}
	return t
}

func mustGraph(g *graph.Graph, _ *workload.Rates) *graph.Graph { return g }

// Fig4 reproduces Figure 4: predicted improvement ratio of PARALLELNOSY
// over the FF baseline as a function of the iteration, on both graphs.
func Fig4(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 4 — predicted improvement ratio of ParallelNosy vs iteration",
		Note:   "paper shape: sharp rise over the first iterations, plateau ≈ 2 (twitter above flickr)",
		Header: []string{"iteration", "flickr-like", "twitter-like"},
	}
	series := make([][]float64, 2)
	for i, build := range []func() (*graph.Graph, *workload.Rates){sc.flickr, sc.twitter} {
		g, r := build()
		hybrid := baseline.HybridCost(g, r)
		res := nosy.Solve(g, r, nosy.Config{Workers: sc.Workers})
		for _, it := range res.Iterations {
			series[i] = append(series[i], hybrid/it.Cost)
		}
	}
	// The paper plots iterations 1..20; the heuristic keeps harvesting
	// marginal gains long after the plateau, so the table shows the
	// paper's range plus the converged end point.
	const plotted = 20
	n := len(series[0])
	if len(series[1]) > n {
		n = len(series[1])
	}
	if n > plotted {
		n = plotted
	}
	at := func(s []float64, i int) float64 {
		if i < len(s) {
			return s[i]
		}
		return s[len(s)-1]
	}
	for it := 0; it < n; it++ {
		t.Rows = append(t.Rows, []string{
			d(it + 1), f3(at(series[0], it)), f3(at(series[1], it)),
		})
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("converged(%d/%d)", len(series[0]), len(series[1])),
		f3(series[0][len(series[0])-1]),
		f3(series[1][len(series[1])-1]),
	})
	return t
}

// Fig5 reproduces Figure 5: starting from half the Flickr-like edges,
// add batches of k random edges and compare the incremental policy
// (new edges served hybrid) against static re-optimization.
func Fig5(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 5 — static vs incremental ParallelNosy after adding k edges",
		Note:   "paper shape: incremental holds up (hub-membership covering even improves it on triangle-rich batches) but static pulls ahead as the batch grows",
		Header: []string{"batch-k", "incremental-ratio", "static-ratio"},
	}
	full, r := sc.flickr()
	edges := full.EdgeList()
	rng := rand.New(rand.NewSource(sc.Seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	half := len(edges) / 2
	base := graph.FromEdges(full.NumNodes(), edges[:half])
	baseSched := nosy.Solve(base, r, nosy.Config{Workers: sc.Workers}).Schedule

	// Batch sizes: powers of ten up to the spare half (the paper sweeps
	// 10^4..10^7 on the 71M-edge graph; we scale to the synthetic size).
	for k := half / 100; k <= half; k *= 10 {
		if k == 0 {
			k = 1
		}
		batch := edges[half : half+k]
		m := incremental.New(baseSched, r)
		for _, e := range batch {
			if err := m.AddEdge(e.From, e.To); err != nil {
				// Duplicate inside the shuffled remainder cannot happen
				// (edge lists are deduplicated), so any error is fatal
				// programmer error; surface it loudly in the table.
				panic(err)
			}
		}
		gk := graph.FromEdges(full.NumNodes(), edges[:half+k])
		hybrid := baseline.HybridCost(gk, r)
		static := nosy.Solve(gk, r, nosy.Config{Workers: sc.Workers}).Schedule.Cost(r)
		t.Rows = append(t.Rows, []string{
			d(k), f3(hybrid / m.Cost()), f3(hybrid / static),
		})
	}
	return t
}

// serverSweep is the x axis of Figures 6–8.
func serverSweep(max int) []int {
	var out []int
	for s := 1; s <= max; s *= 4 {
		out = append(out, s)
	}
	return out
}

// Fig6 reproduces Figure 6: actual per-client throughput of the
// prototype under PARALLELNOSY and FF schedules as the server count
// grows, plus the actual improvement ratio.
func Fig6(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 6 — actual prototype throughput (req/s per client) vs number of servers",
		Note:   "paper shape: per-client throughput falls with servers; PN/FF ratio < 1 in small systems, grows past ~hundreds of servers",
		Header: []string{"servers", "ParallelNosy", "FF", "actual-ratio"},
	}
	g, r := sc.flickr()
	pn := nosy.Solve(g, r, nosy.Config{Workers: sc.Workers}).Schedule
	ff := baseline.Hybrid(g, r)
	trace := netstore.GenerateTrace(r, sc.PrototypeRequests, sc.Seed)
	for _, servers := range serverSweep(1024) {
		rates := make([]float64, 2)
		for i, s := range []*core.Schedule{pn, ff} {
			c, err := netstore.NewCluster(s, netstore.ClusterOptions{
				Servers: servers, PartitionSeed: sc.Seed,
			})
			if err != nil {
				panic(err)
			}
			res := netstore.MeasureThroughput(c, trace, sc.PrototypeClients)
			c.Close()
			rates[i] = res.PerClientRate
		}
		t.Rows = append(t.Rows, []string{
			d(servers), f1(rates[0]), f1(rates[1]), f3(rates[0] / rates[1]),
		})
	}
	return t
}

// Fig7 reproduces Figure 7: predicted throughput normalized to the
// one-server optimum, with hash data placement and batching, for
// PARALLELNOSY and FF, up to 10⁴ servers.
func Fig7(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 7 — normalized predicted throughput vs number of servers (with data placement)",
		Note:   "paper shape: FF slightly ahead in small systems, crossover ≈ 200 servers, PN ratio → Figure 4 plateau",
		Header: []string{"servers", "ParallelNosy", "FF", "predicted-ratio"},
	}
	g, r := sc.flickr()
	pn := nosy.Solve(g, r, nosy.Config{Workers: sc.Workers}).Schedule
	ff := baseline.Hybrid(g, r)
	for _, servers := range serverSweep(10000) {
		a := partition.Hash(g.NumNodes(), servers, sc.Seed)
		tpPN := partition.NormalizedThroughput(pn, r, a)
		tpFF := partition.NormalizedThroughput(ff, r, a)
		t.Rows = append(t.Rows, []string{
			d(servers), f3(tpPN), f3(tpFF), f3(tpPN / tpFF),
		})
	}
	return t
}

// Fig8 reproduces Figure 8: per-server query load (mean, and stddev as
// the error bars) for both schedules, normalized by total query rate.
func Fig8(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 8 — load balancing: normalized query rate per server",
		Note:   "paper shape: mean load decreases with servers; both schedules comparably balanced (log y axis)",
		Header: []string{"servers", "PN-mean", "PN-sd", "FF-mean", "FF-sd"},
	}
	g, r := sc.flickr()
	pn := nosy.Solve(g, r, nosy.Config{Workers: sc.Workers}).Schedule
	ff := baseline.Hybrid(g, r)
	var total float64
	for _, c := range r.Cons {
		total += c
	}
	for _, servers := range serverSweep(10000) {
		a := partition.Hash(g.NumNodes(), servers, sc.Seed)
		loadPN := partition.QueryLoad(pn, r, a)
		loadFF := partition.QueryLoad(ff, r, a)
		norm := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for i, x := range xs {
				out[i] = x / total
			}
			return out
		}
		nPN, nFF := norm(loadPN), norm(loadFF)
		sd := func(xs []float64) float64 { return math.Sqrt(stats.Variance(xs)) }
		t.Rows = append(t.Rows, []string{
			d(servers),
			e2(stats.Mean(nPN)), e2(sd(nPN)),
			e2(stats.Mean(nFF)), e2(sd(nFF)),
		})
	}
	return t
}

// SampleMethod selects the Figure 9 sampling strategy.
type SampleMethod int

const (
	// RandomWalkSampling is Figure 9a.
	RandomWalkSampling SampleMethod = iota
	// BFSSampling is Figure 9b.
	BFSSampling
)

// Fig9 reproduces Figure 9: CHITCHAT vs PARALLELNOSY predicted
// improvement over FF on graph samples, sweeping the read/write ratio.
func Fig9(sc Scale, method SampleMethod) *Table {
	name := "9a (random-walk samples)"
	if method == BFSSampling {
		name = "9b (breadth-first samples)"
	}
	t := &Table{
		Title:  "Figure " + name + " — ChitChat vs ParallelNosy improvement ratio vs read/write ratio",
		Note:   "paper shape: ChitChat above ParallelNosy everywhere; both decay toward 1 as reads dominate; BFS gains > RW gains",
		Header: []string{"rw-ratio", "flickr-CC", "flickr-PN", "twitter-CC", "twitter-PN"},
	}
	ratios := []float64{1, 2, 5, 10, 20, 50, 100}
	cols := make([][]float64, 4)
	for gi, build := range []func() (*graph.Graph, *workload.Rates){sc.flickr, sc.twitter} {
		g, _ := build()
		for s := 0; s < sc.SampleCount; s++ {
			var sample sampling.Result
			if method == RandomWalkSampling {
				sample = sampling.RandomWalk(g, sc.SampleEdges, sc.Seed+int64(s))
			} else {
				sample = sampling.BFS(g, sc.SampleEdges, sc.Seed+int64(s))
			}
			sg := sample.Graph
			base := workload.LogDegree(sg, workload.DefaultReadWriteRatio)
			for ri, ratio := range ratios {
				r := base.WithRatio(ratio)
				hybrid := baseline.HybridCost(sg, r)
				cc := chitchat.Solve(sg, r, chitchat.Config{}).Cost(r)
				pn := nosy.Solve(sg, r, nosy.Config{Workers: sc.Workers}).Schedule.Cost(r)
				for len(cols[gi*2]) < len(ratios) {
					cols[gi*2] = append(cols[gi*2], 0)
					cols[gi*2+1] = append(cols[gi*2+1], 0)
				}
				cols[gi*2][ri] += hybrid / cc
				cols[gi*2+1][ri] += hybrid / pn
			}
		}
	}
	for ri, ratio := range ratios {
		row := []string{f1(ratio)}
		for c := 0; c < 4; c++ {
			row = append(row, f3(cols[c][ri]/float64(sc.SampleCount)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

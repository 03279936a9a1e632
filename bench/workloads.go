package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"
)

// geometry sizes the four workloads. full is what BENCHMARK.json runs;
// smoke is the same code at a size the unit tests can afford.
type geometry struct {
	// Streamed Flickr-like graphs, by edge count: churn_local needs the
	// 768-node region cap to be a small part of the graph; the other two
	// only need a graph, and a smaller one buys more rounds per run.
	batchEdges, churnEdges, serveEdges int
	smallNodes                         int // the CHITCHAT graph of solve_batch, by node count
	shards                             int // partition count of the shard solve
	churnOps                           int // churn_local ops per round
	requests                           int // serve_static requests per round
	liveNodes                          int // live_e2e graph, by node count
	liveOps                            int // live_e2e churn ops per round
	// liveRate is the fixed open-loop feed rate of live_e2e in ops/s:
	// about 40% of the closed-loop rate the daemon sustained on this
	// geometry when the benchmark was defined (≈110 ops/s). It is part
	// of the workload; changing it starts a new baseline.
	liveRate  float64
	minRounds int // a run is never fewer rounds than this
	probe     probeSizes
}

var (
	fullGeometry = geometry{
		batchEdges: 60_000, churnEdges: 120_000, serveEdges: 60_000,
		smallNodes: 500, shards: 4,
		churnOps: 1000, requests: 25_000,
		liveNodes: 200, liveOps: 100, liveRate: 45,
		minRounds: 5, probe: probeSizes{spins: 10_000_000, pings: 2000, kernelNodes: 1500},
	}
	smokeGeometry = geometry{
		batchEdges: 5_000, churnEdges: 5_000, serveEdges: 5_000,
		smallNodes: 60, shards: 2,
		churnOps: 160, requests: 600,
		liveNodes: 50, liveOps: 48, liveRate: 600,
		minRounds: 2, probe: probeSizes{spins: 100_000, pings: 50, kernelNodes: 100},
	}
)

const (
	servers    = 2  // TCP servers of the serving tier
	checkEvery = 64 // every checkEvery-th query is held against the feed model
)

// env is what one round of a workload is given.
type env struct {
	seam
	geo  geometry
	seed int64 // this round's input seed, derived from -seed and the round
}

// round is what one round of a workload measured. Latencies are in ms.
type round struct {
	setup, timed time.Duration
	// stalled is the part of timed the work rate leaves out: on
	// churn_local, the time inside Apply calls that ran a re-solve.
	stalled           time.Duration
	work              float64
	attempted, failed int
	errs              []string
	cost, hybrid      float64 // of the final schedule and of hybrid on the same graph and rates
	op, stall         []float64
	query, update     []float64
	lag               []float64
	wireBytes         int64
	requests          int
	counts            map[string]float64   // per-layer sums and counts of this round
	samples           map[string][]float64 // per-layer latencies of this round, ms
	keep              kept
}

func newRound() *round {
	return &round{counts: map[string]float64{}, samples: map[string][]float64{}}
}

// kept is what a round hands to the per-layer probes of a traced run.
type kept struct {
	big, small *graphT
	sched      *schedule
	ops        []churnOp
	reqs       reqTrace
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *round) add(name string, v float64) { r.counts[name] += v }

// normalize divides every time the round measured by the machine factor
// f (see calib.go), turning wall time into reference time.
func (r *round) normalize(f float64) {
	r.setup = time.Duration(float64(r.setup) / f)
	r.timed = time.Duration(float64(r.timed) / f)
	r.stalled = time.Duration(float64(r.stalled) / f)
	lists := [][]float64{r.op, r.stall, r.query, r.update, r.lag}
	for _, xs := range r.samples {
		lists = append(lists, xs)
	}
	for _, xs := range lists {
		for i := range xs {
			xs[i] /= f
		}
	}
}

func (r *round) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// workload is one entry of the benchmark. roundSeconds is what a round
// takes on the container the benchmark was defined on; -seconds divided
// by it, and never fewer than the geometry's minRounds, is the number of
// rounds.
type workload struct {
	name, why    string
	roundSeconds float64
	run          func(e env) (*round, error)
}

var workloads = []workload{
	{"solve_batch", "batch planning only: chitchat, nosy and shard do all the work, daemon and serving none", 1.6, solveBatch},
	{"churn_local", "daemon ingest with re-solve regions of about a fifth of the graph; serving idle, solvers on regions only", 4.2, churnLocal},
	{"serve_static", "TCP serving of a static plan, read-heavy; daemon idle, solvers in set-up only", 2.2, serveStatic},
	{"live_e2e", "daemon and TCP tier share the cores: open-loop bursty churn, whole-graph re-solves, write-heavy requests", 2.6, liveE2E},
}

// --- solve_batch --------------------------------------------------------------

func solveBatch(e env) (*round, error) {
	r := newRound()
	t0 := time.Now()
	sp := e.begin("harness.setup")
	big := e.streamGraph(e.geo.batchEdges, e.seed)
	small := e.flickrGraph(e.geo.smallNodes, e.seed)
	rb, rs := e.logDegreeRates(big), e.logDegreeRates(small)
	hb, hs := e.hybridCost(big, rb), e.hybridCost(small, rs)
	e.end(sp)
	r.setup = time.Since(t0)
	r.keep = kept{big: big, small: small}

	runtime.GC()
	t1 := time.Now()
	sp = e.begin("harness.timed")
	for _, c := range []struct {
		name   string
		g      *graphT
		r      *rates
		hybrid float64
		opts   solveOpts
	}{
		{"chitchat", small, rs, hs, solveOpts{}},
		{"nosy", big, rb, hb, solveOpts{}},
		{"shard", big, rb, hb, solveOpts{shards: e.geo.shards}},
	} {
		r.attempted++
		sc, iters, err := e.solve(c.name+".solve", c.name, c.opts, c.g, c.r)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		if err := e.validate(sc); err != nil {
			r.fail("%s schedule invalid: %v", c.name, err)
			continue
		}
		cost := e.cost(sc, c.r)
		r.cost += cost
		r.hybrid += c.hybrid
		r.work += float64(numEdges(c.g))
		r.add(c.name+".cost_ratio", cost/c.hybrid)
		if c.name == "nosy" {
			r.add("nosy.iterations", float64(iters))
		}
	}
	e.end(sp)
	r.timed = time.Since(t1)
	r.op = []float64{ms(r.timed)}
	r.add("shard.shards", float64(e.geo.shards))
	return r, nil
}

// --- churn_local ----------------------------------------------------------------

func churnLocal(e env) (*round, error) {
	r := newRound()
	t0 := time.Now()
	sp := e.begin("harness.setup")
	big := e.streamGraph(e.geo.churnEdges, e.seed)
	rb := e.logDegreeRates(big)
	ops := e.generateChurn(big, rb, e.geo.churnOps, e.seed)
	sc, _, err := e.solve("nosy.solve", "nosy", solveOpts{}, big, rb)
	if err != nil {
		return nil, err
	}
	d, err := e.newDaemon(sc, rb, churnDaemon)
	if err != nil {
		return nil, err
	}
	e.end(sp)
	r.setup = time.Since(t0)
	r.keep = kept{big: big, sched: sc, ops: ops}

	runtime.GC()
	t1 := time.Now()
	sp = e.begin("harness.timed")
	for i, op := range ops {
		applyOne(e.seam, d, i, op, r)
	}
	e.end(sp)
	r.timed = time.Since(t1)
	r.work = float64(len(ops))
	for _, st := range r.stall {
		r.stalled += time.Duration(st * float64(time.Millisecond))
	}
	r.op = append(r.op, r.stall...)
	finishDaemon(e.seam, d, r)
	return r, nil
}

// applyOne feeds the i-th op of a feed to the daemon and sorts the
// call's latency into r.stall (a re-solve ran) or r.op (it did not),
// booking the per-layer daemon counters. It reports whether the call
// stalled.
func applyOne(s seam, d *daemon, i int, op churnOp, r *round) bool {
	before := daemonStats(d)
	t := time.Now()
	err := s.apply(d, op)
	el := time.Since(t)
	r.attempted++
	if err != nil {
		r.fail("apply op %d: %v", i, err)
		return false
	}
	after := daemonStats(d)
	attempts := after.Resolves + after.Reverted - before.Resolves - before.Reverted
	switch {
	case attempts > 0:
		r.stall = append(r.stall, ms(el))
		r.sample("online.resolve", ms(el))
		r.sample("online.resolve_solver", ms(after.ResolveWall-before.ResolveWall))
		r.sample("online.resolve_overhead", ms(el-(after.ResolveWall-before.ResolveWall)))
		region := float64(after.RegionEdges - before.RegionEdges)
		r.add("attempts", float64(attempts))
		r.add("region_edges", region)
		r.add("region_share", region/float64(liveEdges(d)))
		return true
	case (i+1)%driftCheckEvery == 0:
		r.op = append(r.op, ms(el))
		r.sample("online.apply_check", ms(el))
	default:
		r.op = append(r.op, ms(el))
		r.sample("online.apply_plain", ms(el))
	}
	return false
}

// finishDaemon validates the daemon's final schedule and prices it
// against hybrid on the final graph and rates.
func finishDaemon(s seam, d *daemon, r *round) {
	if err := daemonValidate(d); err != nil {
		r.fail("daemon schedule invalid: %v", err)
	}
	g, sc := s.snapshot(d)
	r.cost = s.cost(sc, daemonRates(d))
	r.hybrid = s.hybridCost(g, daemonRates(d))
	st := daemonStats(d)
	r.add("online.resolves", float64(st.Resolves))
	r.add("online.reverted", float64(st.Reverted))
	r.add("online.amortized", float64(st.Amortized))
	if st.SolverErrors > 0 {
		r.fail("%d re-solves failed: %v", st.SolverErrors, st.LastSolverErr)
	}
}

// --- serving tier shared by serve_static and live_e2e ---------------------------

// client issues requests one at a time (a closed loop of one), timing
// each, checking every checkEvery-th query against the feed model, and
// in a traced run booking bytes and messages per request kind.
type client struct {
	seam
	t       *tier
	model   *feedModel
	r       *round
	queries int
	starts  []time.Duration // of each query since the client began, for busy/quiet
	began   time.Time
}

func (c *client) do(u nodeID, isUpdate bool) {
	var b0, f0 int64
	if c.th != nil {
		b0, f0 = c.t.traffic()
	}
	c.r.attempted++
	c.r.requests++
	kind := "query"
	t := time.Now()
	if isUpdate {
		kind = "update"
		err := c.netUpdate(c.t, u, c.model.produce(u))
		c.r.update = append(c.r.update, ms(time.Since(t)))
		if err != nil {
			c.r.fail("update %d: %v", u, err)
		}
	} else {
		got, err := c.netQuery(c.t, u)
		c.r.query = append(c.r.query, ms(time.Since(t)))
		c.starts = append(c.starts, t.Sub(c.began))
		if err != nil {
			c.r.fail("query %d: %v", u, err)
		} else if c.queries%checkEvery == 0 {
			if err := c.model.check(u, got); err != nil {
				c.r.fail("%v", err)
			}
		}
		c.queries++
	}
	if c.th != nil {
		b1, f1 := c.t.traffic()
		c.r.add(kind+"_bytes", float64(b1-b0))
		c.r.add(kind+"_msgs", float64(f1-f0))
	}
}

// finish books the wire totals and the client's failure handling, and
// pools the request latencies as the workload's op.
func (c *client) finish() {
	c.r.wireBytes, _ = c.t.traffic()
	retries, redials := c.t.retries()
	c.r.add("netstore.retries", float64(retries))
	c.r.add("netstore.redials", float64(redials))
	c.r.op = append(append(c.r.op, c.r.query...), c.r.update...)
}

// --- serve_static ------------------------------------------------------------------

func serveStatic(e env) (*round, error) {
	r := newRound()
	t0 := time.Now()
	sp := e.begin("harness.setup")
	big := e.streamGraph(e.geo.serveEdges, e.seed)
	rb := e.logDegreeRates(big)
	reqs := e.generateRequests(rb, e.geo.requests, e.seed)
	sc, _, err := e.solve("nosy.solve", "nosy", solveOpts{}, big, rb)
	if err != nil {
		return nil, err
	}
	t, err := e.startTier(sc, servers, e.seed)
	if err != nil {
		return nil, err
	}
	defer t.close()
	e.end(sp)
	r.setup = time.Since(t0)
	r.keep = kept{big: big, sched: sc, reqs: reqs}
	r.cost, r.hybrid = e.cost(sc, rb), e.hybridCost(big, rb)

	runtime.GC()
	c := &client{seam: e.seam, t: t, model: newFeedModel(big), r: r, began: time.Now()}
	sp = e.begin("harness.timed")
	for _, q := range reqs {
		c.do(q.User, q.IsUpdate)
	}
	e.end(sp)
	r.timed = time.Since(c.began)
	r.work = float64(len(reqs))
	c.finish()
	return r, nil
}

// --- live_e2e -----------------------------------------------------------------------

func liveE2E(e env) (*round, error) {
	r := newRound()
	t0 := time.Now()
	sp := e.begin("harness.setup")
	g := e.flickrGraph(e.geo.liveNodes, e.seed)
	rt := e.logDegreeRates(g)
	ops, err := e.generateScenario("flashcrowd", g, rt, e.geo.liveOps, e.seed)
	if err != nil {
		return nil, err
	}
	sc, _, err := e.solve("chitchat.solve", "chitchat", solveOpts{}, g, rt)
	if err != nil {
		return nil, err
	}
	t, err := e.startTier(sc, servers, e.seed)
	if err != nil {
		return nil, err
	}
	defer t.close()
	d, err := e.newDaemon(sc, rt, liveDaemon())
	if err != nil {
		return nil, err
	}
	// The only rollout the TCP tier offers: each accepted splice bumps
	// the epoch the servers stamp on replies. The client's plan stays
	// the one it dialled with.
	epoch := uint32(0)
	onSplice(d, func() {
		epoch++
		e.setEpoch(t, epoch)
	})
	e.end(sp)
	r.setup = time.Since(t0)

	runtime.GC()
	sp = e.begin("harness.timed")
	// The client's requests go to a round of their own, merged below,
	// so the two goroutines share nothing while the feed runs.
	cr := newRound()
	c := &client{seam: seam{e.th.fork()}, t: t, model: newFeedModel(g), r: cr, began: time.Now()}
	var feedOver atomic.Bool
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		rng := rand.New(rand.NewSource(e.seed))
		for i := 0; !feedOver.Load(); i++ {
			c.do(nodeID(rng.Intn(numNodes(g))), i%2 == 0)
		}
	}()

	type interval struct{ from, to time.Duration }
	var stalls []interval
	ft := openLoop(len(ops), e.geo.liveRate, func(i int) {
		from := time.Since(c.began)
		if applyOne(e.seam, d, i, ops[i], r) {
			stalls = append(stalls, interval{from, time.Since(c.began)})
		}
	})
	feedOver.Store(true)
	<-clientDone
	e.end(sp)
	r.timed = time.Since(c.began)

	c.finish()
	r.attempted += cr.attempted
	r.failed += cr.failed
	r.errs = append(r.errs, cr.errs...)
	r.op, r.query, r.update = cr.op, cr.query, cr.update
	r.requests, r.wireBytes = cr.requests, cr.wireBytes
	for k, v := range cr.counts {
		r.add(k, v)
	}
	r.work = float64(cr.requests)
	r.lag = ft.lag
	r.samples["harness.feed_late"] = ft.late
	r.add("netstore.epochs", float64(epoch))
	// A query is busy when it overlapped an Apply that ran a re-solve.
	for i, at := range c.starts {
		end := at + time.Duration(cr.query[i]*1e6)
		name := "netstore.query_quiet"
		for _, s := range stalls {
			if at < s.to && end > s.from {
				name = "netstore.query_busy"
				break
			}
		}
		r.sample(name, cr.query[i])
	}
	finishDaemon(e.seam, d, r)
	return r, nil
}

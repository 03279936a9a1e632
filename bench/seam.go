package main

// seam.go is the only file of the harness that calls into the repo.
// Every function here is one pinned signature (bench/README.md lists
// them): a refactor that moves or renames one of them leaves a
// forwarding shim until a benchmark issue moves the seam. In a traced
// run each call is wrapped in a span, so the per-layer numbers are
// measured at exactly these boundaries and nowhere inside the program.

import (
	"context"
	"fmt"

	"piggyback"
	"piggyback/internal/netstore"
	"piggyback/internal/partition"
	"piggyback/internal/scenario"
)

type (
	graphT    = piggyback.Graph
	nodeID    = piggyback.NodeID
	rates     = piggyback.Rates
	schedule  = piggyback.Schedule
	churnOp   = piggyback.ChurnOp
	daemon    = piggyback.OnlineDaemon
	daemonCfg = piggyback.OnlineConfig
	event     = piggyback.Event
	reqTrace  = piggyback.Trace
)

// seam carries the calling goroutine's span stack; th is nil when
// tracing is off and every begin/end is then a nil check.
type seam struct{ th *thread }

func (s seam) begin(name string) int { return s.th.begin(name) }
func (s seam) end(id int)            { s.th.end(id) }

// --- graphgen, workload, baseline ---------------------------------------

func (s seam) streamGraph(edges int, seed int64) *graphT {
	defer s.end(s.begin("graphgen.build"))
	return piggyback.StreamSocialGraph(piggyback.FlickrLikeEdges(edges, seed))
}

func (s seam) flickrGraph(nodes int, seed int64) *graphT {
	defer s.end(s.begin("graphgen.build"))
	return piggyback.FlickrLikeGraph(nodes, seed)
}

func (s seam) logDegreeRates(g *graphT) *rates {
	defer s.end(s.begin("workload.rates"))
	return piggyback.LogDegreeRates(g, 5)
}

func (s seam) hybridCost(g *graphT, r *rates) float64 {
	defer s.end(s.begin("baseline.hybrid"))
	return piggyback.HybridCost(g, r)
}

func (s seam) generateChurn(g *graphT, r *rates, n int, seed int64) []churnOp {
	defer s.end(s.begin("workload.churn"))
	return piggyback.GenerateChurn(g, r, n, piggyback.ChurnConfig{Seed: seed})
}

func (s seam) generateScenario(name string, g *graphT, r *rates, n int, seed int64) ([]churnOp, error) {
	defer s.end(s.begin("scenario.generate"))
	return scenario.Default.Generate(name, g, r, scenario.Params{Ops: n, Seed: seed})
}

func (s seam) generateRequests(r *rates, n int, seed int64) reqTrace {
	defer s.end(s.begin("store.trace"))
	return piggyback.GenerateTrace(r, n, seed)
}

// --- solvers, core --------------------------------------------------------

// solveOpts are the only solver options a workload sets; zero means the
// shipped default (Workers 0 is GOMAXPROCS).
type solveOpts struct{ workers, shards int }

// solve runs one registry solver; span is the span name, so the
// Workers:1 probes are told apart from the default runs.
func (s seam) solve(span, name string, o solveOpts, g *graphT, r *rates) (*schedule, int, error) {
	sv, err := piggyback.NewSolver(name, piggyback.Options{Workers: o.workers, Shards: o.shards})
	if err != nil {
		return nil, 0, err
	}
	defer s.end(s.begin(span))
	res, err := sv.Solve(context.Background(), piggyback.Problem{Graph: g, Rates: r})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	return res.Schedule, res.Report.Iterations, nil
}

func (s seam) validate(sc *schedule) error {
	defer s.end(s.begin("core.validate"))
	return sc.Validate()
}

func (s seam) cost(sc *schedule, r *rates) float64 {
	defer s.end(s.begin("core.cost"))
	return sc.Cost(r)
}

func (s seam) locality(g *graphT, servers int) {
	defer s.end(s.begin("partition.locality"))
	partition.Locality(g, servers, 0)
}

func (s seam) refine(sc *schedule, r *rates) {
	defer s.end(s.begin("refine.run"))
	piggyback.Refine(sc, r)
}

func (s seam) khop(g *graphT, seed nodeID, k, maxNodes int) []nodeID {
	defer s.end(s.begin("graph.khop"))
	return piggyback.KHopNeighborhood(g, []nodeID{seed}, k, maxNodes)
}

func (s seam) induced(g *graphT, nodes []nodeID) int {
	defer s.end(s.begin("graph.induced"))
	return piggyback.InducedSubgraph(g, nodes).G.NumEdges()
}

// --- online, incremental ----------------------------------------------------

// driftCheckEvery is both daemons' CheckEvery: every driftCheckEvery-th
// Apply checks drift, which is how the harness tells a plain Apply from
// one that checked.
const driftCheckEvery = 8

// churnDaemon is churn_local's daemon: the configuration BENCH_zoo and
// the acceptance pins use. The default BudgetFraction would stop
// re-solving after the first region.
var churnDaemon = daemonCfg{DriftThreshold: 0.05, CheckEvery: driftCheckEvery, BudgetFraction: -1}

// liveDaemon is live_e2e's daemon, cmd/loadgen's: whole-graph CHITCHAT
// re-solves on one worker, so the client keeps a core.
func liveDaemon() daemonCfg {
	cfg := daemonCfg{DriftThreshold: 0.02, CheckEvery: driftCheckEvery, BudgetFraction: -1}
	cfg.ChitChat.Workers = 1
	return cfg
}

// onSplice has f called after every accepted re-solve.
func onSplice(d *daemon, f func()) {
	d.OnSplice = func(*graphT, *schedule) { f() }
}

func (s seam) newDaemon(sc *schedule, r *rates, cfg daemonCfg) (*daemon, error) {
	defer s.end(s.begin("online.new"))
	return piggyback.NewOnlineDaemon(sc, r, cfg)
}

func (s seam) apply(d *daemon, op churnOp) error {
	defer s.end(s.begin("online.apply"))
	return d.Apply(op)
}

func (s seam) snapshot(d *daemon) (*graphT, *schedule) {
	defer s.end(s.begin("online.snapshot"))
	return d.Snapshot()
}

func (s seam) newMaintainer(sc *schedule, r *rates) *piggyback.Maintainer {
	defer s.end(s.begin("incremental.new"))
	return piggyback.NewMaintainer(sc, r)
}

func (s seam) maintain(m *piggyback.Maintainer, op churnOp) error {
	switch op.Kind {
	case piggyback.OpAdd:
		defer s.end(s.begin("incremental.add"))
		return m.AddEdge(op.U, op.V)
	case piggyback.OpRemove:
		defer s.end(s.begin("incremental.remove"))
		return m.RemoveEdge(op.U, op.V)
	default:
		defer s.end(s.begin("incremental.rates"))
		return m.UpdateRates(op.U, op.Prod, op.Cons)
	}
}

func (s seam) rebase(m *piggyback.Maintainer) {
	defer s.end(s.begin("incremental.rebase"))
	m.Rebase()
}

// --- store (in-process tier) -------------------------------------------------

// memTier is the in-process tier with one client, the serving probe.
type memTier struct {
	c  *piggyback.Cluster
	cl *piggyback.Client
}

func (s seam) newMemTier(sc *schedule, servers int) (*memTier, error) {
	defer s.end(s.begin("store.newcluster"))
	c, err := piggyback.NewCluster(sc, piggyback.ClusterOptions{Servers: servers})
	if err != nil {
		return nil, err
	}
	return &memTier{c, c.NewClient()}, nil
}

func (m *memTier) close() { m.c.Close() }

func (s seam) swap(m *memTier, sc *schedule) error {
	defer s.end(s.begin("store.swap"))
	return m.c.Swap(sc)
}

// memQuery and memUpdate return the number of server messages the
// request cost.
func (s seam) memQuery(m *memTier, u nodeID) ([]event, int) {
	defer s.end(s.begin("store.query"))
	return m.cl.Query(u), m.c.MessagesPerQuery(u)
}

func (s seam) memUpdate(m *memTier, u nodeID, ev event) int {
	defer s.end(s.begin("store.update"))
	m.cl.Update(u, ev)
	return m.c.MessagesPerUpdate(u)
}

// --- netstore (TCP tier) -----------------------------------------------------

// tier is the serving tier of serve_static and live_e2e: TCP servers
// on loopback and one client dialled with the plan.
type tier struct {
	servers []*netstore.Server
	cl      *netstore.Client
}

func (s seam) startTier(sc *schedule, servers int, seed int64) (*tier, error) {
	t := &tier{}
	var addrs []string
	for i := 0; i < servers; i++ {
		sv, err := netstore.NewServer("127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		t.servers = append(t.servers, sv)
		addrs = append(addrs, sv.Addr())
	}
	sp := s.begin("netstore.dial")
	cl, err := netstore.DialWithSeed(sc, addrs, seed)
	s.end(sp)
	if err != nil {
		t.close()
		return nil, err
	}
	t.cl = cl
	return t, nil
}

// close stops the client and the servers and waits for the servers'
// goroutines to end.
func (t *tier) close() {
	if t.cl != nil {
		t.cl.Close()
	}
	for _, sv := range t.servers {
		sv.Close()
	}
}

// traffic is the client's bytes on the wire and the servers' request
// frames so far.
func (t *tier) traffic() (bytes, frames int64) {
	st := t.cl.Stats()
	for _, sv := range t.servers {
		frames += sv.Stats().Frames
	}
	return st.BytesRead + st.BytesWritten, frames
}

func (t *tier) retries() (retries, redials int) {
	st := t.cl.Stats()
	return st.Retries, st.Redials
}

func (s seam) netQuery(t *tier, u nodeID) ([]event, error) {
	defer s.end(s.begin("netstore.query"))
	return t.cl.Query(u)
}

func (s seam) netUpdate(t *tier, u nodeID, ev event) error {
	defer s.end(s.begin("netstore.update"))
	return t.cl.Update(u, ev)
}

// setEpoch publishes a plan epoch on every server.
func (s seam) setEpoch(t *tier, e uint32) {
	defer s.end(s.begin("netstore.setepoch"))
	for _, sv := range t.servers {
		sv.SetEpoch(e)
	}
}

// --- accessors (no spans: they do no work worth a layer) ---------------------

func numNodes(g *graphT) int                   { return g.NumNodes() }
func numEdges(g *graphT) int                   { return g.NumEdges() }
func inNeighbors(g *graphT, u nodeID) []nodeID { return g.InNeighbors(u) }
func cloneSchedule(sc *schedule) *schedule     { return sc.Clone() }

func daemonStats(d *daemon) piggyback.OnlineStats { return d.Stats() }
func daemonValidate(d *daemon) error              { return d.Validate() }
func daemonRates(d *daemon) *rates                { return d.Rates() }
func liveEdges(d *daemon) int                     { return d.NumEdges() }

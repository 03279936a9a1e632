// Package online is the online rescheduling subsystem: a long-running
// scheduler daemon that keeps a request schedule near-optimal while the
// social graph churns underneath it.
//
// The batch solvers (CHITCHAT, PARALLELNOSY) produce high-quality
// schedules but cost seconds to hours; the incremental maintainer
// (§3.3) patches updates in microseconds but only ever greedily, so
// quality drifts monotonically away from the optimum and nothing wins
// it back. The daemon closes that loop:
//
//  1. Ingest — every churn op (edge add/remove, rate update) is applied
//     through incremental.Maintainer: free hub coverage when an existing
//     hub already brackets the new edge, hybrid direct service
//     otherwise, rescues on support removal. O(degree) per op.
//  2. Track — each op charges its patch regret (the cost the greedy
//     patch pays that a re-solve might not) as "dirt" on the op's
//     endpoint nodes; Cost() is the running schedule cost, O(1) per op.
//  3. Start — every CheckEvery ops the daemon finds the dirtiest node;
//     if the dirt inside its k-hop neighborhood exceeds DriftThreshold ×
//     the region's own hybrid cost mass (Σ c* over the edges the
//     neighborhood induces), it snapshots the live graph, schedule and
//     rates and hands them to one goroutine, which solves the region's
//     induced subgraph in isolation, splices the patch into its copy of
//     the schedule (core.ApplyPatch restores boundary supports; DESIGN.md
//     §7 argues validity), refines and builds a maintainer on the
//     result. Ingest goes on meanwhile, and every op is journaled.
//  4. Gate — at the next check boundary the daemon waits for that
//     goroutine, replays the journaled ops onto the patched schedule and
//     keeps it only if it costs less than the incumbent as it stands then
//     — regressions are rolled back, so the daemon's schedule quality is
//     monotone at every splice point.
//
// Everything is deterministic for a fixed trace, configuration and
// seed: solver results are worker-count invariant, region selection
// breaks ties by lowest node id, an attempt is spliced at an op count,
// never at a clock, and no decision consults time or randomness.
package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/bitset"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/incremental"
	"piggyback/internal/refine"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// regionHops is the hop radius of the extracted dirty region: wide
// enough to contain every hub structure a churned edge can participate in
// (a hub neighborhood is 1 hop; its cross-edges span 2).
const regionHops = 2

// maxRegionNodes caps the extracted region size.
const maxRegionNodes = 768

// Config tunes the daemon. The zero value uses the defaults.
type Config struct {
	// DriftThreshold triggers a localized re-solve when the dirt
	// accumulated inside a candidate region exceeds DriftThreshold ×
	// the region's own hybrid cost mass (Σ c* over its edges) — i.e.
	// when the region has churned by that fraction of itself. 0 means
	// 0.25; negative disables re-solves (pure incremental maintenance,
	// for ablation).
	DriftThreshold float64
	// CheckEvery is how many ops pass between drift checks; 0 means 16.
	CheckEvery int
	// BudgetFraction caps the cumulative re-solved region size (accepted
	// or reverted) at this fraction of the live edge count — the hard
	// guarantee that localized re-solving stays a small share of total
	// work no matter how the drift signal behaves. 0 means 0.2; negative
	// removes the cap.
	BudgetFraction float64
	// ChitChat configures the regional solver, the paper's CHITCHAT: each
	// localized re-solve hands it the region's induced subgraph under the
	// projected rates and splices the schedule it returns. Its OnProgress,
	// when set, runs on every commit before the daemon's stopping rule
	// (DESIGN.md §7), which reads the same Progress.
	ChitChat chitchat.Config
	// Metrics, when non-nil, mirrors Stats and the running cost into the
	// given registry (online_*), one daemon per registry. Every series is
	// registered at construction, so a scrape sees them at zero before
	// the first op.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records every localized re-solve as a
	// `resolve` span with one timed child per step (DESIGN.md §12), the
	// solve's `solve/chitchat` among them. One attempt is in flight at a
	// time, and while it is, only its goroutine begins spans, so the span
	// tree is deterministic for a fixed trace and configuration as long as
	// nothing else begins spans on the tracer during the trace.
	Tracer *telemetry.Tracer
	// Events, when non-nil, is called once per re-solve attempt, at its
	// splice on the Apply goroutine, with the attempt's decision record
	// (DESIGN.md §12): the records the telemetry and chaos tests pin
	// exactly.
	Events func(record string)
}

func (cfg Config) withDefaults() Config {
	if cfg.DriftThreshold == 0 {
		cfg.DriftThreshold = 0.25
	}
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = 16
	}
	if cfg.BudgetFraction == 0 {
		cfg.BudgetFraction = 0.2
	}
	return cfg
}

// Stats counts what the daemon has done.
type Stats struct {
	Ops, Adds, Removes, RateUpdates int
	// Rescues counts covered edges re-served directly because a support
	// disappeared.
	Rescues int
	// Resolves counts accepted localized re-solves; Reverted counts
	// re-solves rolled back because the patch did not lower the cost.
	Resolves, Reverted int
	// SolverErrors counts localized re-solves that failed outright
	// (regional solver returned no schedule) — distinct from Reverted,
	// which means the solver ran but did not win. A nonzero count
	// signals misconfiguration or a solver bug, never mere
	// unprofitability; the last error is retained in LastSolverErr.
	SolverErrors int
	// LastSolverErr is the most recent hard re-solve failure (nil when
	// SolverErrors is 0).
	LastSolverErr error
	// DriftChecks counts candidate regions held against the threshold
	// (at most one per check boundary: one with new dirt, or the first
	// after an attempt started); RegionExtractions counts those that ran
	// the region kernels because the dirtiest node or the epoch had
	// changed. The rest were answered from the remembered region.
	DriftChecks, RegionExtractions int
	// RegionEdges is the cumulative edge count of all re-solved regions
	// (accepted or reverted) — the "localized work" measure: compare it
	// against the live edge count to see how much of the graph the
	// daemon ever re-solved.
	RegionEdges int
	// BoundaryRepairs counts exterior coverage supports the splices'
	// repair walks restored (core.ApplyPatch), over every patch spliced,
	// accepted or reverted.
	BoundaryRepairs int
	// Amortized is always 0; kept for the bench seam until a benchmark
	// issue drops it.
	Amortized int
	// ResolveWall is the cumulative wall-clock time spent inside the
	// regional solver (accepted and reverted re-solves alike), on the
	// attempts' own goroutines: solver work, not time Apply waited.
	ResolveWall time.Duration
}

// Daemon maintains a near-optimal schedule over a churning graph. Not
// safe for concurrent use; feed it from one goroutine. Its own goroutine,
// one per re-solve attempt, touches nothing the caller can reach: Cost,
// Stats, Snapshot and Validate report the daemon as of its
// last splice, and an attempt still in flight when the caller stops
// feeding ops is spliced by Flush (ApplyTrace calls it).
type Daemon struct {
	cfg Config
	r   *workload.Rates
	m   *incremental.Maintainer
	// regional is chitchat.SolveCtx under cfg.ChitChat, the stopping rule
	// on its OnProgress. Only tests replace it, after New, to inject a
	// fault or a patch. What goes wrong in it is the daemon's to handle
	// (DESIGN.md §11): a panic is raised again at the splice; a solve that
	// returns nothing, or a schedule that is not over the subgraph, is a
	// failed attempt booked in SolverErrors.
	regional func(context.Context, *graph.Graph, *workload.Rates) (*core.Schedule, error)
	// maxRegion caps the extracted region size: maxRegionNodes, which only
	// tests change, after New.
	maxRegion int

	// OnSplice, when non-nil, is called synchronously after every
	// ACCEPTED localized re-solve with the rebased live graph and the
	// newly spliced schedule, the journaled ops replayed. The daemon does
	// not mutate the schedule it hands out (the maintainer works on its
	// own state), so receivers — e.g. a serving cluster swapping its live
	// plan — may retain it.
	OnSplice func(*graph.Graph, *core.Schedule)

	// epoch is the CSR graph backing the current maintainer (the live
	// graph as of the last rebase). Region discovery walks it; it lags
	// the true live graph by at most the churn since the last re-solve.
	epoch *graph.Graph

	dirt []float64 // per-node accumulated patch regret
	// dirtiest is the argmax of dirt, lowest id on ties, or -1 while no
	// node carries dirt. charge keeps it; start, where dirt falls, rescans.
	dirtiest graph.NodeID
	sinceChk int
	// revertStreak counts consecutive reverted re-solves; each one
	// doubles the effective drift threshold (reset on accept), so a
	// graph state where patches cannot win stops being probed instead
	// of thrashing the budget.
	revertStreak int
	// charged records whether any dirt landed since the last drift
	// check; an unchanged dirt landscape cannot newly cross the
	// threshold, so the check (a sum over the dirtiest node's remembered
	// region) is skipped entirely.
	charged bool
	region  regionEntry // the previous check's candidate region
	attempt attempt     // the re-solve under way, or the last one
	fl      flight      // the attempt in flight, if any
	// observe, when non-nil, is called on the attempt's goroutine with every
	// schedule a patch was spliced into, before refine runs on it: the
	// schedule, the attempt's rates, the solve's commits and whether it
	// returned an error (a cut). Only tests set it, to hold each patch to
	// their oracles.
	observe func(s *core.Schedule, r *workload.Rates, commits int, canceled bool)
	stats   Stats
	inst    daemonInstruments
}

// regionEntry is the candidate region of the previous drift check. It is
// a function of the immutable epoch graph and the seed alone, so a check
// whose epoch and seed repeat reads it instead of extracting it again,
// and resumes its Σc* where the last check stopped (DESIGN.md §16 argues
// exactness).
type regionEntry struct {
	epoch *graph.Graph
	seed  graph.NodeID
	nodes []graph.NodeID // KHop of seed on epoch, ascending
	in    *bitset.Set    // membership of nodes, over the node ids
	// at is the cursor: edges and cost cover the edges of epoch that
	// nodes induce with a source in nodes[:at], in ascending edge id.
	at    int
	edges int
	cost  float64 // Σ c* over those edges, under the live rates
	dirt  float64 // Σ dirt over nodes, as the last check read it
	// rows caches the induced targets of every member the cursor has
	// passed since the extraction, in CSR order: member k's are
	// rows[off[k]:off[k+1]], for k < len(off)-1.
	rows []graph.NodeID
	off  []int32
	// sums[k] is cost before member k, its checkpoint (the edge count
	// before it is off[k]), for k < at = len(sums).
	sums []float64
}

// reset empties the remembered prefix sum and its checkpoints, keeping
// their capacity; the next check prices the region from its first member.
func (rg *regionEntry) reset() { rg.at, rg.edges, rg.cost, rg.sums = 0, 0, 0, rg.sums[:0] }

// rewind moves the cursor back to the first priced member whose cached
// row holds an edge whose c* the rate op on member u moved: u's own row,
// or that of a member x with an edge x → u. p and c are u's rates before
// the op, r the rates after it. With no such member the prefix stands.
func (rg *regionEntry) rewind(r *workload.Rates, u graph.NodeID, p, c float64) {
	j := rg.at
	if k, ok := slices.BinarySearch(rg.nodes[:j], u); ok {
		for _, v := range rg.rows[rg.off[k]:rg.off[k+1]] {
			if math.Float64bits(min(p, r.Cons[v])) != math.Float64bits(baseline.EdgeCost(r, u, v)) {
				j = k
				break
			}
		}
	}
	for _, x := range rg.epoch.InNeighbors(u) {
		if rg.in.Test(int(x)) && math.Float64bits(min(r.Prod[x], c)) != math.Float64bits(baseline.EdgeCost(r, x, u)) {
			if k, ok := slices.BinarySearch(rg.nodes[:j], x); ok {
				j = k
			}
		}
	}
	if j < rg.at {
		rg.at, rg.edges, rg.cost, rg.sums = j, int(rg.off[j]), rg.sums[j], rg.sums[:j]
	}
}

// counterSeries are the Stats counts the registry mirrors, one
// online_*_total counter each, in daemonInstruments.counters order.
var counterSeries = [...]struct {
	name string
	of   func(*Stats) int
}{
	{"online_ops_total", func(s *Stats) int { return s.Ops }},
	{"online_adds_total", func(s *Stats) int { return s.Adds }},
	{"online_removes_total", func(s *Stats) int { return s.Removes }},
	{"online_rate_updates_total", func(s *Stats) int { return s.RateUpdates }},
	{"online_rescues_total", func(s *Stats) int { return s.Rescues }},
	{"online_resolves_total", func(s *Stats) int { return s.Resolves }},
	{"online_reverted_total", func(s *Stats) int { return s.Reverted }},
	{"online_solver_errors_total", func(s *Stats) int { return s.SolverErrors }},
	{"online_region_edges_total", func(s *Stats) int { return s.RegionEdges }},
	{"online_drift_checks_total", func(s *Stats) int { return s.DriftChecks }},
	{"online_region_extractions_total", func(s *Stats) int { return s.RegionExtractions }},
	{"online_boundary_repairs_total", func(s *Stats) int { return s.BoundaryRepairs }},
}

// daemonInstruments is the daemon's view of a telemetry registry: the
// Stats mirror publish writes and the histograms only the registry keeps.
// With no registry configured the histograms are nil and no-op, and the
// counters and gauges are standalone ones publish never writes.
type daemonInstruments struct {
	counters                 [len(counterSeries)]*telemetry.Counter
	cost, resolveWall        *telemetry.Gauge
	regionSize, stall, apply *telemetry.Histogram
}

func newDaemonInstruments(reg *telemetry.Registry) daemonInstruments {
	in := daemonInstruments{
		cost:        reg.Gauge("online_cost"),
		resolveWall: reg.Gauge("online_resolve_wall_seconds_total"),
		regionSize:  reg.Histogram("online_region_size", telemetry.SizeBuckets),
		stall:       reg.Histogram("online_stall_seconds", telemetry.LatencyBuckets),
		apply:       reg.Histogram("online_apply_seconds", telemetry.LatencyBuckets),
	}
	for i, c := range counterSeries {
		in.counters[i] = reg.Counter(c.name)
	}
	return in
}

// publish brings the registry up to Stats and the running cost: the one
// place the daemon writes a counter. It runs where Stats may have moved —
// the end of apply, Flush and New — and does nothing with no registry,
// the zero-cost-off contract.
func (d *Daemon) publish() {
	if d.cfg.Metrics == nil {
		return
	}
	for i, c := range d.inst.counters {
		c.Add(int64(counterSeries[i].of(&d.stats)) - c.Value())
	}
	d.inst.resolveWall.Set(d.stats.ResolveWall.Seconds())
	d.inst.cost.Set(d.m.Cost())
}

// New starts a daemon from an optimized valid schedule and its rates.
// The rates are retained and mutated by rate-update ops; the schedule
// is cloned.
func New(s *core.Schedule, r *workload.Rates, cfg Config) (*Daemon, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("online: seed schedule invalid: %w", err)
	}
	// Rate ops are checked as they come (incremental.UpdateRates); the
	// initial rates are checked here. The drift check's early exit needs
	// every c* ≥ 0.
	n := s.Graph().NumNodes()
	if len(r.Prod) < n || len(r.Cons) < n {
		return nil, fmt.Errorf("online: rates cover %d/%d users, graph has %d nodes", len(r.Prod), len(r.Cons), n)
	}
	if err := (&workload.Rates{Prod: r.Prod[:n], Cons: r.Cons[:n]}).Validate(n); err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	d := &Daemon{
		cfg:       cfg.withDefaults(),
		r:         r,
		maxRegion: maxRegionNodes,
		epoch:     s.Graph(),
		dirt:      make([]float64, s.Graph().NumNodes()),
		dirtiest:  -1,
	}
	d.region.in = bitset.New(len(d.dirt))
	d.inst = newDaemonInstruments(d.cfg.Metrics)
	cc := d.cfg.ChitChat
	own := cc.OnProgress
	cc.OnProgress = func(pr chitchat.Progress) {
		if own != nil {
			own(pr)
		}
		d.attempt.onCommit(pr)
	}
	d.regional = func(ctx context.Context, g *graph.Graph, r *workload.Rates) (*core.Schedule, error) {
		return chitchat.SolveCtx(ctx, g, r, cc)
	}
	d.m = incremental.New(s, r)
	d.m.OnRescue = d.onRescue
	d.publish()
	return d, nil
}

func (d *Daemon) onRescue(u, v graph.NodeID, cost float64) {
	d.stats.Rescues++
	d.charge(u, v, cost)
}

// charge books patch regret on both endpoints of a churned edge. Dirt only
// grows here, so the argmax moves only to a node it charges.
func (d *Daemon) charge(u, v graph.NodeID, amount float64) {
	if !(amount > 0) {
		return
	}
	for _, x := range [2]graph.NodeID{u, v} {
		d.dirt[x] += amount
		if b := d.dirtiest; b < 0 || d.dirt[x] > d.dirt[b] || d.dirt[x] == d.dirt[b] && x < b {
			d.dirtiest = x
		}
	}
	d.charged = true
}

// Cost returns the current schedule cost (O(1), running).
func (d *Daemon) Cost() float64 { return d.m.Cost() }

// Stats returns the op and re-solve counters so far.
func (d *Daemon) Stats() Stats { return d.stats }

// Rates returns the live workload rates (mutated by rate-update ops).
func (d *Daemon) Rates() *workload.Rates { return d.r }

// Validate checks Theorem-1 validity of the maintained schedule over
// the live edge set.
func (d *Daemon) Validate() error { return d.m.Validate() }

// Snapshot materializes the live graph and schedule (the maintainer is
// unchanged).
func (d *Daemon) Snapshot() (*graph.Graph, *core.Schedule) { return d.m.Rebase() }

// NumEdges returns the live edge count.
func (d *Daemon) NumEdges() int { return d.m.NumEdges() }

// Apply ingests one churn op: patch, charge drift, and — at check
// boundaries — splice the attempt in flight and start one on any region
// whose accumulated dirt crossed the threshold.
func (d *Daemon) Apply(op workload.ChurnOp) error {
	return d.ApplyCtx(context.Background(), op)
}

// ApplyCtx is Apply under a context: a context that is already done
// fails fast before the op is ingested, and an op that splices an attempt
// waits for its solve under the context, so a caller that wants a wall
// bound on the daemon's per-op latency passes a deadline. A solve cut
// short by the context contributes its best-so-far patch through the
// usual accept/revert gate.
func (d *Daemon) ApplyCtx(ctx context.Context, op workload.ChurnOp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d.inst.apply == nil {
		return d.apply(ctx, op)
	}
	start := time.Now()
	err := d.apply(ctx, op)
	d.inst.apply.Observe(time.Since(start).Seconds())
	return err
}

func (d *Daemon) apply(ctx context.Context, op workload.ChurnOp) error {
	switch op.Kind {
	case workload.OpAdd:
		before := d.m.Cost()
		if err := d.m.AddEdge(op.U, op.V); err != nil {
			return err
		}
		d.stats.Adds++
		// A hub-covered add costs 0 and leaves no regret; a direct add
		// pays c* that a re-solve might cover for free.
		d.charge(op.U, op.V, d.m.Cost()-before)
	case workload.OpRemove:
		if err := d.m.RemoveEdge(op.U, op.V); err != nil {
			return err
		}
		d.stats.Removes++
		// Rescue regret is charged by the hook as it happens. The
		// removal itself only LOWERS the cost; stranded hub supports are
		// second-order (bounded by what the hub still covers) and
		// charging for them here drowned the real signal in
		// unrecoverable dirt, so they are deliberately not charged.
	case workload.OpRates:
		if op.U < 0 || int(op.U) >= len(d.dirt) {
			return fmt.Errorf("online: user %d out of range", op.U)
		}
		oldP, oldC := d.r.Prod[op.U], d.r.Cons[op.U]
		if err := d.m.UpdateRates(op.U, op.Prod, op.Cons); err != nil {
			return err
		}
		d.stats.RateUpdates++
		if d.region.in.Test(int(op.U)) {
			d.region.rewind(d.r, op.U, oldP, oldC)
		}
		// Repricing regret scales with how much scheduled traffic the
		// user carries; the epoch degrees are the cheap proxy.
		regret := math.Abs(op.Prod-oldP)*float64(d.epoch.OutDegree(op.U)) +
			math.Abs(op.Cons-oldC)*float64(d.epoch.InDegree(op.U))
		d.charge(op.U, op.U, regret/2)
	default:
		return fmt.Errorf("online: unknown op kind %d", op.Kind)
	}
	if d.fl.done != nil {
		d.fl.journal = append(d.fl.journal, op)
	}
	d.stats.Ops++
	d.sinceChk++
	if d.sinceChk >= d.cfg.CheckEvery {
		d.sinceChk = 0
		d.splice(ctx)
		d.checkDrift(ctx)
	}
	d.publish()
	return nil
}

// Flush splices the attempt in flight, if any, as the next check boundary
// would, and starts none: the end-of-stream rule. ApplyTrace calls it
// when its ops run out; a caller driving Apply by hand calls it
// before it reads the final schedule. Its wait for the solve runs under
// ctx, as a splicing ApplyCtx's does.
func (d *Daemon) Flush(ctx context.Context) {
	d.splice(ctx)
	d.publish()
}

// ApplyTrace ingests a whole trace, stopping at the first error, and
// flushes the attempt in flight at its end.
func (d *Daemon) ApplyTrace(ops []workload.ChurnOp) error {
	ctx := context.Background()
	for i, op := range ops {
		if err := d.ApplyCtx(ctx, op); err != nil {
			return fmt.Errorf("online: op %d: %w", i, err)
		}
	}
	d.Flush(ctx)
	return nil
}

// dirtiestNode returns the node with maximum dirt (lowest id wins
// ties), or -1 if no node carries dirt.
func (d *Daemon) dirtiestNode() graph.NodeID { return d.dirtiest }

// clearDirt zeroes the dirt of nodes and finds the dirtiest node again:
// the one place dirt falls, and so the one scan of it, which start alone
// runs.
func (d *Daemon) clearDirt(nodes []graph.NodeID) {
	for _, v := range nodes {
		d.dirt[v] = 0
	}
	d.dirtiest = -1
	most := 0.0
	for v, amt := range d.dirt {
		if amt > most {
			d.dirtiest, most = graph.NodeID(v), amt
		}
	}
}

// checkDrift starts an attempt when the dirtiest node's k-hop region has
// churned by more than DriftThreshold of its own hybrid cost mass. It runs
// after the boundary's splice, so no attempt is in flight.
func (d *Daemon) checkDrift(ctx context.Context) {
	if d.cfg.DriftThreshold < 0 {
		return
	}
	if !d.charged {
		return // no new dirt since the last check; nothing can have crossed
	}
	d.charged = false
	if d.cfg.BudgetFraction >= 0 &&
		float64(d.stats.RegionEdges) >= d.cfg.BudgetFraction*float64(d.m.NumEdges()) {
		return // budget already spent; skip the check entirely
	}
	d.checkRegion(ctx)
}

// checkRegion holds the dirtiest node's region against the threshold and
// starts an attempt on it if it has crossed; it reports whether it did.
// The region is read from d.region when the epoch and the dirtiest node
// are those of the previous check, and extracted otherwise.
func (d *Daemon) checkRegion(ctx context.Context) bool {
	seed := d.dirtiestNode()
	if seed < 0 {
		return false
	}
	d.stats.DriftChecks++
	rg := &d.region
	if rg.epoch != d.epoch || rg.seed != seed {
		d.extractRegion(seed)
	}
	dirt := 0.0
	for _, v := range rg.nodes {
		dirt += d.dirt[v]
	}
	rg.dirt = dirt
	threshold := d.cfg.DriftThreshold * float64(int64(1)<<min(d.revertStreak, 40))
	d.priceRegion(threshold)
	if rg.dirt <= threshold*max(rg.cost, 1e-9) {
		// The region around the dirtiest node has not churned enough
		// relative to its size. Other regions could in principle have a
		// higher dirt ratio, but the dirtiest node is the cheap
		// deterministic proxy; they will be found once their own dirt
		// grows.
		return false
	}
	if d.cfg.BudgetFraction >= 0 &&
		float64(d.stats.RegionEdges+rg.edges) > d.cfg.BudgetFraction*float64(d.m.NumEdges()) {
		return false // out of re-solve budget; keep patching incrementally
	}
	d.start(ctx)
	return true
}

// extractRegion replaces the remembered region with the k-hop
// neighborhood of seed on the current epoch graph.
func (d *Daemon) extractRegion(seed graph.NodeID) {
	d.stats.RegionExtractions++
	rg := &d.region
	for _, v := range rg.nodes {
		rg.in.Clear(int(v))
	}
	rg.epoch, rg.seed = d.epoch, seed
	rg.nodes = graph.KHop(d.epoch, []graph.NodeID{seed}, regionHops, d.maxRegion)
	for _, v := range rg.nodes {
		rg.in.Set(int(v))
	}
	rg.rows, rg.off = rg.rows[:0], append(rg.off[:0], 0)
	rg.reset()
}

// priceRegion extends the remembered prefix sum member by member, under
// the live rates, until it answers the check: it stops at the first
// cursor at which dirt ≤ threshold·max(Σc*, 1e-9), or after the last
// member. Every c* is ≥ 0, so the prefix never decreases and its "no"
// is the full sum's; a check that crosses has priced every member, so it
// holds the full edge count and the full sum. Each member's CSR
// out-range is walked in order, so the induced edges are added in
// ascending edge id whether a sum is built in one check or resumed over
// several — the summation order that makes the float reproducible. A
// member's row is scanned against the bitmap once per extraction and
// cached: every target is written and the end advances by its membership
// bit, so the scan does not branch on it. A re-price reads the cache,
// which holds the same targets in the same order, so it makes the same
// additions; the cost before each member is kept as its checkpoint.
func (d *Daemon) priceRegion(threshold float64) {
	rg := &d.region
	for rg.at < len(rg.nodes) && rg.dirt > threshold*max(rg.cost, 1e-9) {
		u := rg.nodes[rg.at]
		if rg.at == len(rg.off)-1 {
			out := rg.epoch.OutNeighbors(u)
			end := len(rg.rows)
			rows := slices.Grow(rg.rows, len(out))[:end+len(out)]
			for _, v := range out {
				rows[end] = v
				end += int(rg.in.Bit(int(v)))
			}
			rg.rows = rows[:end]
			rg.off = append(rg.off, int32(end))
		}
		rg.sums = append(rg.sums, rg.cost)
		row := rg.rows[rg.off[rg.at]:rg.off[rg.at+1]]
		rg.edges += len(row)
		for _, v := range row {
			rg.cost += baseline.EdgeCost(d.r, u, v)
		}
		rg.at++
	}
}

// stage is one traced step of a re-solve: a span and its wall time. The
// zero value, which begin returns without a tracer, does nothing.
type stage struct {
	tr    *telemetry.Tracer
	id    telemetry.SpanID
	start time.Time
}

// begin opens a span under parent, formatting its attributes only when a
// tracer is configured.
func (d *Daemon) begin(parent telemetry.SpanID, name, format string, args ...any) stage {
	if tr := d.cfg.Tracer; tr != nil {
		return stage{tr, tr.Begin(parent, name, fmt.Sprintf(format, args...)), time.Now()}
	}
	return stage{}
}

func (st stage) end(format string, args ...any) {
	if st.tr != nil {
		st.tr.SetDuration(st.id, time.Since(st.start))
		st.tr.End(st.id, fmt.Sprintf(format, args...))
	}
}

// The stopping rule of a regional re-solve (DESIGN.md §7): at every
// stopEvery-th commit the solve is cut if it already leads the incumbent
// on the region's edges AND the last stopEvery commits added less than
// stopGain of what it has saved. Commits and floats from a serial loop,
// never time, so a cut solve repeats as exactly as an exhausted one. Not
// knobs: a change re-pins the zoo counts.
const (
	stopEvery = 64
	stopGain  = 0.01
)

// attempt is one re-solve's decision record — the text Config.Events
// receives, with no timings — and the rule's state while the solver runs.
// While the attempt is in flight its goroutine owns the rule's fields.
type attempt struct {
	seed         graph.NodeID
	nodes, edges int
	// On the region's edges: what the live schedule pays (push ⇒ rp(u),
	// pull ⇒ rc(v)) and Σ c*, so hybrid − Saved is the solve's pay so far.
	incumbent, hybrid float64
	commits           int
	saved, mark       float64 // Saved at the last commit, at the last boundary
	stopped           string  // early: the rule cut it; canceled: a context did
	lag               int     // ops ingested between start and splice
	// cut cancels the solve under way; the rule calls it at most once and
	// clears it when it does.
	cut context.CancelFunc
	// The patch as solved and after refine — each with the lag's ops
	// replayed onto it — and the incumbent, each priced over the whole live
	// graph at the splice.
	raw, refined, total float64
	verdict             string // accepted, reverted, dissolved, failed
	backoff             int    // the revert streak it leaves
}

// onCommit counts one CHITCHAT commit, runs the rule on it and cuts the
// solve when it fires. Once it has, the rule lets the commits the solve
// still streams pass by.
func (a *attempt) onCommit(pr chitchat.Progress) {
	a.commits = pr.Commits
	if a.cut != nil && a.stop(pr) {
		a.cut()
		a.cut = nil
	}
}

// stop is the rule's predicate at a commit.
func (a *attempt) stop(pr chitchat.Progress) bool {
	a.saved = pr.Saved
	if pr.Commits%stopEvery != 0 {
		return false
	}
	gained := pr.Saved - a.mark
	a.mark = pr.Saved
	early := a.hybrid-pr.Saved < a.incumbent && gained < stopGain*pr.Saved
	if early {
		a.stopped = "early"
	}
	return early
}

// solveOutcome renders the end of the `solve/chitchat` span: the solve's
// commits, the patch's cost under the region's rates r and whether the
// solve returned an error (a cut), or its failure, with the class of err.
func solveOutcome(patch *core.Schedule, r *workload.Rates, commits int, canceled bool, err error) string {
	s := "failed"
	if patch != nil {
		s = fmt.Sprintf("ok iters=%d cost=%.1f", commits, patch.Cost(r))
		if canceled {
			s += " canceled"
		}
	}
	if err != nil {
		s += " class=" + errClass(err)
	}
	return s
}

// errClass buckets an error into a small deterministic vocabulary: error
// strings can carry run-dependent detail, classes cannot.
func errClass(err error) string {
	switch {
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	}
	return "error"
}

func (a *attempt) String() string {
	return fmt.Sprintf("seed=%d nodes=%d edges=%d incumbent=%.1f hybrid=%.1f commits=%d saved=%.1f stopped=%s"+
		" lag=%d raw=%.1f refined=%.1f total=%.1f verdict=%s backoff=%d",
		a.seed, a.nodes, a.edges, a.incumbent, a.hybrid, a.commits, a.saved, a.stopped,
		a.lag, a.raw, a.refined, a.total, a.verdict, a.backoff)
}

// flight is the Apply goroutine's handle on the attempt in flight, and
// what the attempt's goroutine hands back. The goroutine writes the
// results only before it closes done; the Apply goroutine reads them only
// after, and leaves d.attempt alone while done is open.
type flight struct {
	done    chan struct{}       // non-nil while an attempt is in flight
	cancel  context.CancelFunc  // cuts its solve short
	root    stage               // its `resolve` span
	began   time.Duration       // what its start took on the Apply goroutine
	journal []workload.ChurnOp  // the ops ingested since its start, in order
	frozen  *incremental.Frozen // the live state it rebases from

	// Written by the attempt's goroutine.
	epoch    *graph.Graph // the live graph it was started on, rebased
	err      error
	wall     time.Duration // inside the regional solver
	repairs  int           // the splice's boundary repairs
	refined  refine.Result
	m        *incremental.Maintainer // the spliced patch, on the attempt's copy of the rates; nil if it failed
	panicked any
}

// start begins an attempt on the remembered region: it freezes the live
// state, copies the rates, clears the region's dirt and hands all three to
// the attempt's own goroutine (solve). The next check boundary splices
// it. A tracer sees the attempt as one `resolve` span, open until the
// splice, with its steps as children.
func (d *Daemon) start(ctx context.Context) {
	began := time.Now()
	nodes := slices.Clone(d.region.nodes)
	root := d.begin(telemetry.RootSpan, "resolve", "seed=%d nodes=%d", d.region.seed, len(nodes))
	d.attempt = attempt{seed: d.region.seed, nodes: len(nodes), stopped: "exhausted"}
	fl := &d.fl
	st := d.begin(root.id, "freeze", "")
	// The previous attempt's goroutine, the one reader of its Frozen, has
	// ended: the boundary's splice waited for it.
	fl.frozen = d.m.Freeze(fl.frozen)
	r := &workload.Rates{Prod: slices.Clone(d.r.Prod), Cons: slices.Clone(d.r.Cons)}
	st.end("")
	// Clear the region's dirt up front: whatever the splice decides, it is
	// final for this dirt mass, and leaving it would re-trigger forever.
	// The dirtiest node moves with it, so the next boundary checks again.
	d.clearDirt(nodes)
	d.charged = true

	sctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	fl.done, fl.cancel, fl.root = make(chan struct{}), cancel, root
	fl.journal = fl.journal[:0]
	fl.err, fl.wall, fl.repairs, fl.m = nil, 0, 0, nil
	fl.began = time.Since(began)
	go d.solve(sctx, fl.frozen, r, nodes)
}

// solve is the attempt's goroutine: the rebase of the frozen state, the
// region's induced subgraph on it, the regional solve of that subgraph,
// the patch's splice into the rebased schedule, the refine sweep and a
// maintainer on the result, all on what start handed over. A panic is
// kept for the splice to raise on the Apply goroutine.
func (d *Daemon) solve(ctx context.Context, frozen *incremental.Frozen, r *workload.Rates, nodes []graph.NodeID) {
	fl, a := &d.fl, &d.attempt
	defer close(fl.done)
	defer func() { fl.panicked = recover() }()
	st := d.begin(fl.root.id, "rebase", "")
	liveG, liveS := frozen.Rebase()
	st.end("edges=%d", liveG.NumEdges())
	fl.epoch = liveG
	// The region's NODE set was chosen on the (possibly lagging) epoch
	// graph; its subgraph is extracted from the fresh live graph, so the
	// re-solve always sees current structure.
	st = d.begin(fl.root.id, "extract", "")
	sub := graph.Induced(liveG, nodes)
	region := sub.GlobalEdge
	sub.G.Edges(func(le graph.EdgeID, lu, lv graph.NodeID) bool {
		e, u, v := region[le], sub.Global[lu], sub.Global[lv]
		a.hybrid += baseline.EdgeCost(r, u, v)
		if liveS.IsPush(e) {
			a.incumbent += r.Prod[u]
		}
		if liveS.IsPull(e) {
			a.incumbent += r.Cons[v]
		}
		return true
	})
	a.edges = len(region)
	st.end("edges=%d", a.edges)
	if a.edges == 0 {
		return // the epoch-stale region dissolved on the live graph
	}

	st = d.begin(fl.root.id, "solve/chitchat", "nodes=%d edges=%d", sub.G.NumNodes(), sub.G.NumEdges())
	sctx, cut := context.WithCancel(ctx)
	defer cut()
	a.cut = cut
	began := time.Now()
	subR := r.Project(sub.Global)
	patch, err := d.regional(sctx, sub.G, subR)
	fl.wall = time.Since(began)
	// A cut the rule made is a finish, not a failure, unless the attempt's
	// own context ended too; the span and the oracles still see it canceled.
	canceled := err != nil
	if a.stopped == "early" && patch != nil && ctx.Err() == nil && errors.Is(err, context.Canceled) {
		err = nil
	}
	fl.err = err
	if st.tr != nil {
		st.end("%s", solveOutcome(patch, subR, a.commits, canceled, err))
	}
	if patch == nil {
		return
	}
	// The rebased schedule is the attempt's own copy: the patch replaces
	// the region's assignments in it, and the repair walk restores the
	// exterior supports the patch cleared.
	st = d.begin(fl.root.id, "splice", "")
	repairs, err := core.ApplyPatch(liveS, sub, patch, r)
	if err != nil {
		st.end("failed")
		fl.err = fmt.Errorf("online: splicing the regional patch: %w", err)
		return
	}
	st.end("repairs=%d", repairs)
	fl.repairs = repairs
	if d.observe != nil {
		d.observe(liveS, r, a.commits, canceled)
	}
	// The regional solver saw the region in isolation, so region edges
	// whose free exterior coverage the extraction severed came back as
	// direct service. The free-coverage sweep wins them back
	// deterministically before the accept/revert decision; it only ever
	// lowers the patch cost, so a patch that loses afterwards would have
	// lost anyway.
	st = d.begin(fl.root.id, "refine", "")
	refined, sup := refine.Pass(liveS, r)
	st.end("recovered=%d", refined.Recovered)
	fl.refined = refined
	// The support table refine took (from the splice's repair walk) and kept
	// current: the maintainer builds its dependency lists from it.
	liveS.KeepSupports(sup)
	st = d.begin(fl.root.id, "rebuild", "")
	fl.m = incremental.New(liveS, r)
	st.end("")
}

// splice ends the attempt in flight, if any: it waits for the attempt's
// goroutine — under ctx, whose end cuts the solve short — replays the
// journaled ops onto the patch and runs the gate against the incumbent
// as it stands now. The patch replaces the incumbent, and a fresh
// maintainer epoch begins, only if it costs less.
func (d *Daemon) splice(ctx context.Context) {
	fl := &d.fl
	if fl.done == nil {
		return
	}
	began := time.Now()
	select {
	case <-fl.done:
	case <-ctx.Done():
		fl.cancel()
		<-fl.done
	}
	fl.cancel()
	fl.done = nil
	if p := fl.panicked; p != nil {
		fl.panicked = nil
		panic(p)
	}
	a := &d.attempt
	a.lag = len(fl.journal)
	d.stats.ResolveWall += fl.wall
	d.decide()
	fl.m = nil

	a.backoff = d.revertStreak
	d.stats.RegionEdges += a.edges
	d.inst.regionSize.Observe(float64(a.edges))
	// What the attempt held the ingest path up for: its start and this.
	d.inst.stall.Observe((fl.began + time.Since(began)).Seconds())
	fl.root.end("%s edges=%d", a.verdict, a.edges)
	if d.cfg.Events != nil {
		d.cfg.Events(a.String())
	}
}

// decide books what the attempt's goroutine handed back and sets the
// verdict: the patch, with the journal replayed onto it, against the
// incumbent.
func (d *Daemon) decide() {
	fl, a := &d.fl, &d.attempt
	m, root := fl.m, fl.root
	if a.edges == 0 {
		// No live edge left in the region, and no solver ran, so neither
		// the revert counter nor the backoff moves.
		a.verdict = "dissolved"
		return
	}
	if m == nil {
		// Hard failure: the solver never produced a schedule, or not one
		// over the region. This is misconfiguration or a bug, not an
		// unprofitable re-solve, so it is booked separately and does NOT
		// feed the revert backoff — backoff models "patches cannot win
		// here", which a solver that never ran says nothing about.
		d.stats.SolverErrors++
		d.stats.LastSolverErr = fl.err
		a.verdict = "failed"
		return
	}
	// A truncated re-solve — by the rule, or by a context — still returns
	// a valid best-so-far patch alongside its error; only hard failures
	// leave no patch, and then the maintained schedule stands.
	if fl.err != nil {
		a.stopped = "canceled"
	}
	d.stats.BoundaryRepairs += fl.repairs

	// The ops ingested since the start land on the patch as they landed on
	// the incumbent, on the rates as they were then. Their rescues charge
	// no dirt: the incumbent already charged what each op cost it.
	st := d.begin(root.id, "replay", "ops=%d", a.lag)
	for i, op := range fl.journal {
		if err := replay(m, op); err != nil {
			panic(fmt.Sprintf("online: op %d of %d since the start does not replay onto the patch: %v", i, a.lag, err))
		}
	}
	m.SetRates(d.r)
	st.end("")

	st = d.begin(root.id, "gate", "")
	a.total, a.refined = d.m.FreshCost(), m.FreshCost()
	a.raw = a.refined + fl.refined.Saved
	if a.refined >= a.total {
		st.end("incumbent=%.1f patch=%.1f revert", a.total, a.refined)
		d.stats.Reverted++
		d.revertStreak++
		a.verdict = "reverted"
		return
	}
	st.end("incumbent=%.1f patch=%.1f accept", a.total, a.refined)
	a.verdict = "accepted"
	d.stats.Resolves++
	d.revertStreak = 0
	m.OnRescue = d.onRescue
	d.m, d.epoch = m, fl.epoch
	if d.OnSplice != nil {
		st = d.begin(root.id, "publish", "")
		d.OnSplice(m.Rebase())
		st.end("")
	}
}

// replay applies a journaled op to m as apply applied it to the incumbent.
func replay(m *incremental.Maintainer, op workload.ChurnOp) error {
	switch op.Kind {
	case workload.OpAdd:
		return m.AddEdge(op.U, op.V)
	case workload.OpRemove:
		return m.RemoveEdge(op.U, op.V)
	default:
		return m.UpdateRates(op.U, op.Prod, op.Cons)
	}
}

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
//     rates and hands them to one goroutine, which re-solves the region
//     in isolation with CHITCHAT or PARALLELNOSY, refines, amortizes and
//     builds a maintainer on the patch. Ingest goes on meanwhile, and
//     every op is journaled.
//  4. Splice — at the next check boundary the daemon waits for that
//     goroutine, replays the journaled ops onto the patch and keeps it
//     only if it costs less than the incumbent as it stands then
//     (core.ApplyPatch restores boundary supports; DESIGN.md §7 argues
//     validity) — regressions are rolled back, so the daemon's schedule
//     quality is monotone at every splice point.
//
// Everything is deterministic for a fixed trace, configuration and
// seed: solver results are worker-count invariant, region selection
// breaks ties by lowest node id, an attempt is spliced at an op count,
// never at a clock, and no decision consults time or randomness.
package online

import (
	"context"
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
	"piggyback/internal/solver"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// Config tunes the daemon. The zero value uses the defaults.
type Config struct {
	// K is the hop radius of the extracted dirty region; 0 means 2 —
	// wide enough to contain every hub structure a churned edge can
	// participate in (a hub neighborhood is 1 hop; its cross-edges span
	// 2).
	K int
	// DriftThreshold triggers a localized re-solve when the dirt
	// accumulated inside a candidate region exceeds DriftThreshold ×
	// the region's own hybrid cost mass (Σ c* over its edges) — i.e.
	// when the region has churned by that fraction of itself. 0 means
	// 0.25; negative disables re-solves (pure incremental maintenance,
	// for ablation).
	DriftThreshold float64
	// CheckEvery is how many ops pass between drift checks; 0 means 16.
	CheckEvery int
	// MaxRegionNodes caps the extracted region size; 0 means 768.
	MaxRegionNodes int
	// BudgetFraction caps the cumulative re-solved region size (accepted
	// or reverted) at this fraction of the live edge count — the hard
	// guarantee that localized re-solving stays a small share of total
	// work no matter how the drift signal behaves. 0 means 0.2; negative
	// removes the cap.
	BudgetFraction float64
	// Regional is the solver used for localized re-solves — any
	// solver.Solver that supports Problem.Region; nil means
	// solver.NewChitChat(ChitChat). The daemon resolves no names: a
	// caller that takes one from a flag looks it up in a solver.Registry
	// itself.
	Regional solver.Solver
	// ChitChat configures the default regional solver; ignored when
	// Regional is set.
	ChitChat chitchat.Config
	// Fallback, when non-nil, backs a circuit breaker around the
	// regional solver: BreakerThreshold consecutive hard re-solve
	// failures quarantine the primary and route re-solves to the
	// fallback, with half-open probing every BreakerProbeEvery-th
	// re-solve. The primary is wrapped in solver.WithRecover so panics
	// count as failures instead of killing the daemon. Nil disables the
	// breaker (and panics stay fatal). It must support Problem.Region.
	Fallback solver.Solver
	// BreakerThreshold is the consecutive-failure trip count; 0 means
	// the solver.BreakerConfig default (3).
	BreakerThreshold int
	// BreakerProbeEvery is the half-open probe cadence; 0 means the
	// solver.BreakerConfig default (4).
	BreakerProbeEvery int
	// Metrics, when non-nil, registers the daemon's counters and gauges
	// (online_*) in the given registry. Every series is registered at
	// construction, so a scrape sees them at zero before the first op.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records every localized re-solve as a
	// `resolve` span with one timed child per step (DESIGN.md §12); the
	// regional solver is wrapped in solver.WithTracing, so its `solve/…`
	// span and whatever a composite solver begins nest under it. One
	// attempt is in flight at a time, and while it is, only its goroutine
	// begins spans, so the span tree is deterministic for a fixed trace
	// and configuration as long as nothing else begins spans on the
	// tracer during the trace.
	Tracer *telemetry.Tracer
	// Events, when non-nil, receives, in order, one ("resolve", …) event
	// per re-solve attempt — its decision record, DESIGN.md §12 — and the
	// circuit breaker's transitions as ("breaker", "closed->open"): the
	// streams the telemetry and chaos tests pin exactly. Transitions are
	// emitted from the attempt's goroutine, records at its splice.
	Events *telemetry.EventLog
}

func (cfg Config) withDefaults() Config {
	if cfg.K == 0 {
		cfg.K = 2
	}
	if cfg.DriftThreshold == 0 {
		cfg.DriftThreshold = 0.25
	}
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = 16
	}
	if cfg.MaxRegionNodes == 0 {
		cfg.MaxRegionNodes = 768
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
	// BoundaryRepairs counts exterior coverage supports restored by
	// splices.
	BoundaryRepairs int
	// Amortized counts direct edges upgraded to purchased hub coverage
	// by the exterior-amortization sweep, over accepted patches only;
	// AmortizedSaved is the net cost those purchases removed. Reverted
	// patches book nothing — their sweep work was rolled back with them.
	Amortized      int
	AmortizedSaved float64
	// ResolveWall is the cumulative wall-clock time spent inside the
	// regional solver (accepted and reverted re-solves alike), on the
	// attempts' own goroutines: solver work, not time Apply waited.
	ResolveWall time.Duration
	// Breaker is the circuit-breaker state when Config.Fallback is set
	// (nil otherwise): trips, probes, fallback solves, open/closed.
	Breaker *solver.BreakerStats
}

// Daemon maintains a near-optimal schedule over a churning graph. Not
// safe for concurrent use; feed it from one goroutine (Serve does). Its
// own goroutine, one per re-solve attempt, touches nothing the caller can
// reach: Cost, Stats, Snapshot and Validate report the daemon as of its
// last splice, and an attempt still in flight when the caller stops
// feeding ops is spliced by Flush (ApplyTrace and Serve call it).
type Daemon struct {
	cfg      Config
	r        *workload.Rates
	m        *incremental.Maintainer
	regional solver.Solver
	// breaker is the circuit breaker wrapped around the regional solver
	// when Config.Fallback is set; nil otherwise. d.regional aliases it
	// then, so this field only serves Stats.
	breaker *solver.Breaker

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

	dirt     []float64 // per-node accumulated patch regret
	sinceChk int
	// revertStreak counts consecutive reverted re-solves; each one
	// doubles the effective drift threshold (reset on accept), so a
	// graph state where patches cannot win stops being probed instead
	// of thrashing the budget.
	revertStreak int
	// charged records whether any dirt landed since the last drift
	// check; an unchanged dirt landscape cannot newly cross the
	// threshold, so the check (an O(n) scan for the dirtiest node plus a
	// sum over its remembered region) is skipped entirely.
	charged bool
	// region is the candidate region of the previous drift check. It is
	// a function of the immutable epoch graph and the seed alone, so a
	// check whose epoch and seed repeat reads it instead of extracting
	// it again (DESIGN.md §16 argues exactness).
	region struct {
		epoch *graph.Graph
		seed  graph.NodeID
		nodes []graph.NodeID // KHop of seed on epoch, ascending
		in    *bitset.Set    // membership of nodes, over the node ids
		edges int            // edges of epoch that nodes induce
		cost  float64        // Σ c* over them, in ascending edge-id order
		dirt  float64        // Σ dirt over nodes, as the last check read it
		// stale: a member's rates changed since cost was summed.
		stale bool
	}
	attempt  attempt   // the re-solve under way, or the last one
	fl       flight    // the attempt in flight, if any
	amortize amortizer // exterior-amortization sweep scratch, the attempt goroutine's
	// noAmortize skips the amortization sweep; only tests set it, to
	// isolate what the sweep decides.
	noAmortize bool
	stats      Stats
	inst       daemonInstruments
}

// daemonInstruments mirrors Stats into a telemetry registry. With no
// registry configured every field is a nil instrument and every update
// is a no-op — the zero-cost-off contract.
type daemonInstruments struct {
	ops, adds, removes, rateUpdates *telemetry.Counter
	rescues, resolves, reverted     *telemetry.Counter
	solverErrors, regionEdges       *telemetry.Counter
	driftChecks, regionExtractions  *telemetry.Counter
	boundaryRepairs, amortized      *telemetry.Counter
	breakerTransitions              *telemetry.Counter
	cost, breakerState              *telemetry.Gauge
	resolveWall                     *telemetry.Gauge
	regionSize, stall, apply        *telemetry.Histogram
}

func newDaemonInstruments(reg *telemetry.Registry) daemonInstruments {
	// A nil registry hands out nil instruments whose methods no-op, so
	// no per-field guard is needed here or at the update sites.
	return daemonInstruments{
		ops:                reg.Counter("online_ops_total"),
		adds:               reg.Counter("online_adds_total"),
		removes:            reg.Counter("online_removes_total"),
		rateUpdates:        reg.Counter("online_rate_updates_total"),
		rescues:            reg.Counter("online_rescues_total"),
		resolves:           reg.Counter("online_resolves_total"),
		reverted:           reg.Counter("online_reverted_total"),
		solverErrors:       reg.Counter("online_solver_errors_total"),
		regionEdges:        reg.Counter("online_region_edges_total"),
		driftChecks:        reg.Counter("online_drift_checks_total"),
		regionExtractions:  reg.Counter("online_region_extractions_total"),
		boundaryRepairs:    reg.Counter("online_boundary_repairs_total"),
		amortized:          reg.Counter("online_amortized_total"),
		breakerTransitions: reg.Counter("online_breaker_transitions_total"),
		cost:               reg.Gauge("online_cost"),
		breakerState:       reg.Gauge("online_breaker_state"),
		resolveWall:        reg.Gauge("online_resolve_wall_seconds_total"),
		regionSize:         reg.Histogram("online_region_size", telemetry.SizeBuckets),
		stall:              reg.Histogram("online_stall_seconds", telemetry.LatencyBuckets),
		apply:              reg.Histogram("online_apply_seconds", telemetry.LatencyBuckets),
	}
}

// New starts a daemon from an optimized valid schedule and its rates.
// The rates are retained and mutated by rate-update ops; the schedule
// is cloned.
func New(s *core.Schedule, r *workload.Rates, cfg Config) (*Daemon, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("online: seed schedule invalid: %w", err)
	}
	d := &Daemon{
		cfg:   cfg.withDefaults(),
		r:     r,
		epoch: s.Graph(),
		dirt:  make([]float64, s.Graph().NumNodes()),
	}
	d.region.in = bitset.New(len(d.dirt))
	d.inst = newDaemonInstruments(d.cfg.Metrics)
	d.regional = d.cfg.Regional
	if d.regional == nil {
		d.regional = solver.NewChitChat(d.cfg.ChitChat)
	} else if !solver.SupportsRegions(d.regional) {
		// Fail at configuration time: a region-incapable solver would
		// turn every triggered re-solve into a silent no-op.
		return nil, fmt.Errorf("online: regional solver %q: %w",
			d.regional.Name(), solver.ErrRegionUnsupported)
	}
	// The stopping rule sits on the regional solver itself: whatever it
	// streams is what the rule sees, and a breaker's fallback is not cut.
	d.regional = solver.WithStop(d.attempt.stop)(d.regional)
	if fb := d.cfg.Fallback; fb != nil {
		if !solver.SupportsRegions(fb) {
			return nil, fmt.Errorf("online: fallback solver %q: %w",
				fb.Name(), solver.ErrRegionUnsupported)
		}
		// WithRecover turns a panicking primary into a hard failure the
		// breaker can count; without the breaker a solver panic stays
		// fatal, exactly as before.
		events := d.cfg.Events
		inst := d.inst
		d.breaker = solver.NewBreaker(
			solver.Chain(d.regional, solver.WithRecover()), fb,
			solver.BreakerConfig{
				Threshold:  d.cfg.BreakerThreshold,
				ProbeEvery: d.cfg.BreakerProbeEvery,
				// Transitions are emitted sequentially in trip order (one
				// attempt is in flight at a time, and the Apply goroutine
				// emits nothing until it has waited for it), so the event
				// stream is an exact, assertable sequence.
				OnTransition: func(from, to solver.BreakerState) {
					inst.breakerState.Set(float64(to))
					inst.breakerTransitions.Inc()
					events.Emit("breaker", from.String()+"->"+to.String())
				},
			})
		d.regional = d.breaker
	}
	if d.cfg.Tracer != nil {
		// Wrap outermost so every daemon-triggered re-solve — primary,
		// fallback, or probe alike — opens exactly one "solve/..." span,
		// with a composite solver's spans nesting under it via the context.
		d.regional = solver.WithTracing(d.cfg.Tracer)(d.regional)
	}
	d.m = incremental.New(s, r)
	d.m.OnRescue = d.onRescue
	d.inst.cost.Set(d.m.Cost())
	return d, nil
}

func (d *Daemon) onRescue(u, v graph.NodeID, cost float64) {
	d.stats.Rescues++
	d.inst.rescues.Inc()
	d.charge(u, v, cost)
}

// charge books patch regret on both endpoints of a churned edge.
func (d *Daemon) charge(u, v graph.NodeID, amount float64) {
	if amount <= 0 {
		return
	}
	d.dirt[u] += amount
	d.dirt[v] += amount
	d.charged = true
}

// Cost returns the current schedule cost (O(1), running).
func (d *Daemon) Cost() float64 { return d.m.Cost() }

// Stats returns the op and re-solve counters so far.
func (d *Daemon) Stats() Stats {
	st := d.stats
	if d.breaker != nil {
		bs := d.breaker.Stats()
		st.Breaker = &bs
	}
	return st
}

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
		d.inst.adds.Inc()
		// A hub-covered add costs 0 and leaves no regret; a direct add
		// pays c* that a re-solve might cover for free.
		d.charge(op.U, op.V, d.m.Cost()-before)
	case workload.OpRemove:
		if err := d.m.RemoveEdge(op.U, op.V); err != nil {
			return err
		}
		d.stats.Removes++
		d.inst.removes.Inc()
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
		d.inst.rateUpdates.Inc()
		if d.region.in.Test(int(op.U)) {
			d.region.stale = true
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
	d.inst.ops.Inc()
	d.sinceChk++
	if d.sinceChk >= d.cfg.CheckEvery {
		d.sinceChk = 0
		d.splice(ctx)
		d.checkDrift(ctx)
	}
	d.inst.cost.Set(d.m.Cost())
	return nil
}

// Flush splices the attempt in flight, if any, as the next check boundary
// would, and starts none: the end-of-stream rule. ApplyTrace and Serve
// call it when their ops run out; a caller driving Apply by hand calls it
// before it reads the final schedule. Its wait for the solve runs under
// ctx, as a splicing ApplyCtx's does.
func (d *Daemon) Flush(ctx context.Context) {
	d.splice(ctx)
	d.inst.cost.Set(d.m.Cost())
}

// ApplyTrace ingests a whole trace, stopping at the first error, and
// flushes the attempt in flight at its end.
func (d *Daemon) ApplyTrace(ops []workload.ChurnOp) error {
	return d.ApplyTraceCtx(context.Background(), ops)
}

// ApplyTraceCtx ingests a whole trace under a context, stopping at the
// first error (including context cancellation between ops), and flushes
// the attempt in flight once every op is in.
func (d *Daemon) ApplyTraceCtx(ctx context.Context, ops []workload.ChurnOp) error {
	for i, op := range ops {
		if err := d.ApplyCtx(ctx, op); err != nil {
			return fmt.Errorf("online: op %d: %w", i, err)
		}
	}
	d.Flush(ctx)
	return nil
}

// Serve ingests ops from a stream until it closes — the daemon loop —
// and then flushes the attempt in flight. It returns the final stats and
// the first error, if any.
func (d *Daemon) Serve(ops <-chan workload.ChurnOp) (Stats, error) {
	return d.ServeCtx(context.Background(), ops)
}

// ServeCtx is Serve under a context: the loop exits with the context's
// error as soon as it fires, without waiting for the channel to close;
// an attempt then in flight stays there until the next splice or Flush.
func (d *Daemon) ServeCtx(ctx context.Context, ops <-chan workload.ChurnOp) (Stats, error) {
	for {
		select {
		case <-ctx.Done():
			return d.Stats(), ctx.Err()
		case op, ok := <-ops:
			if !ok {
				d.Flush(ctx)
				return d.Stats(), nil
			}
			if err := d.ApplyCtx(ctx, op); err != nil {
				return d.Stats(), err
			}
		}
	}
}

// dirtiestNode returns the node with maximum dirt (lowest id wins
// ties), or -1 if no node carries dirt.
func (d *Daemon) dirtiestNode() graph.NodeID {
	best := graph.NodeID(-1)
	bestDirt := 0.0
	for v, amt := range d.dirt {
		if amt > bestDirt {
			best = graph.NodeID(v)
			bestDirt = amt
		}
	}
	return best
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
	d.inst.driftChecks.Inc()
	rg := &d.region
	if rg.epoch != d.epoch || rg.seed != seed {
		d.extractRegion(seed)
	} else if rg.stale {
		d.priceRegion()
	}
	dirt := 0.0
	for _, v := range rg.nodes {
		dirt += d.dirt[v]
	}
	rg.dirt = dirt
	threshold := d.cfg.DriftThreshold * float64(int64(1)<<min(d.revertStreak, 40))
	if rg.dirt <= threshold*math.Max(rg.cost, 1e-9) {
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
	d.inst.regionExtractions.Inc()
	rg := &d.region
	for _, v := range rg.nodes {
		rg.in.Clear(int(v))
	}
	rg.epoch, rg.seed = d.epoch, seed
	rg.nodes = graph.KHop(d.epoch, []graph.NodeID{seed}, d.cfg.K, d.cfg.MaxRegionNodes)
	for _, v := range rg.nodes {
		rg.in.Set(int(v))
	}
	d.priceRegion()
}

// priceRegion counts the epoch edges the remembered nodes induce and
// sums their hybrid costs under the live rates: one pass over the
// members' out-ranges, which visits the induced edges in ascending edge
// id — the summation order that makes the float reproducible.
func (d *Daemon) priceRegion() {
	rg := &d.region
	edges, cost := 0, 0.0
	for _, u := range rg.nodes {
		for _, v := range rg.epoch.OutNeighbors(u) {
			if rg.in.Test(int(v)) {
				edges++
				cost += baseline.EdgeCost(d.r, u, v)
			}
		}
	}
	rg.edges, rg.cost, rg.stale = edges, cost, false
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

// attempt is one re-solve's decision record — the ("resolve", …) event,
// fixed text with no timings — and the rule's state while the solver runs.
// While the attempt is in flight its goroutine owns the rule's fields.
type attempt struct {
	seed         graph.NodeID
	nodes, edges int
	// On the region's edges: what the live schedule pays (push ⇒ rp(u),
	// pull ⇒ rc(v)) and Σ c*, so hybrid − Saved is the solve's pay so far.
	incumbent, hybrid float64
	commits           int
	saved, mark       float64 // Saved at the last event, at the last boundary
	stopped           string  // early: the rule cut it; canceled: a context did
	lag               int     // ops ingested between start and splice
	// The patch as solved, after refine, after amortize — each with the
	// lag's ops replayed onto it — and the incumbent, each priced over the
	// whole live graph at the splice.
	raw, refined, amortized, total float64
	verdict                        string // accepted, reverted, dissolved, failed
	backoff                        int    // the revert streak it leaves
}

// stop is the rule, over the solver's progress stream: CHITCHAT's n-th
// event is its n-th commit. A stream that carries no Saved (NOSY's) never
// satisfies the second half.
func (a *attempt) stop(n int, ev solver.ProgressEvent) bool {
	a.saved = ev.Saved
	if n%stopEvery != 0 {
		return false
	}
	gained := ev.Saved - a.mark
	a.mark = ev.Saved
	early := a.hybrid-ev.Saved < a.incumbent && gained < stopGain*ev.Saved
	if early {
		a.stopped = "early"
	}
	return early
}

func (a *attempt) String() string {
	return fmt.Sprintf("seed=%d nodes=%d edges=%d incumbent=%.1f hybrid=%.1f commits=%d saved=%.1f stopped=%s"+
		" lag=%d raw=%.1f refined=%.1f amortized=%.1f total=%.1f verdict=%s backoff=%d",
		a.seed, a.nodes, a.edges, a.incumbent, a.hybrid, a.commits, a.saved, a.stopped,
		a.lag, a.raw, a.refined, a.amortized, a.total, a.verdict, a.backoff)
}

// flight is the Apply goroutine's handle on the attempt in flight, and
// what the attempt's goroutine hands back. The goroutine writes the
// results only before it closes done; the Apply goroutine reads them only
// after, and leaves d.attempt and d.amortize alone while done is open.
type flight struct {
	done    chan struct{}      // non-nil while an attempt is in flight
	cancel  context.CancelFunc // cuts its solve short
	root    stage              // its `resolve` span
	began   time.Duration      // what its start took on the Apply goroutine
	journal []workload.ChurnOp // the ops ingested since its start, in order

	// Written by the attempt's goroutine.
	epoch    *graph.Graph // the live graph it was started on, rebased
	res      *solver.Result
	err      error
	wall     time.Duration // inside the regional solver
	refined  refine.Result
	amort    amortizeResult
	m        *incremental.Maintainer // the patch, on the attempt's copy of the rates
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
	_, parent := telemetry.FromContext(ctx)
	root := d.begin(parent, "resolve", "seed=%d nodes=%d", d.region.seed, len(nodes))
	d.attempt = attempt{seed: d.region.seed, nodes: len(nodes), stopped: "exhausted"}
	st := d.begin(root.id, "freeze", "")
	frozen := d.m.Freeze()
	r := &workload.Rates{Prod: slices.Clone(d.r.Prod), Cons: slices.Clone(d.r.Cons)}
	st.end("")
	// Clear the region's dirt up front: whatever the splice decides, it is
	// final for this dirt mass, and leaving it would re-trigger forever.
	// The dirtiest node moves with it, so the next boundary checks again.
	for _, v := range nodes {
		d.dirt[v] = 0
	}
	d.charged = true

	fl := &d.fl
	sctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	fl.done, fl.cancel, fl.root = make(chan struct{}), cancel, root
	fl.journal = fl.journal[:0]
	fl.res, fl.err, fl.wall, fl.m = nil, nil, 0, nil
	fl.began = time.Since(began)
	go d.solve(telemetry.NewContext(sctx, root.tr, root.id), frozen, r, nodes)
}

// solve is the attempt's goroutine: the rebase of the frozen state, the
// region's edges on it, the regional solve, the two sweeps and a
// maintainer on the patch, all on what start handed over. A panic is kept
// for the splice to raise on the Apply goroutine.
func (d *Daemon) solve(ctx context.Context, frozen *incremental.Frozen, r *workload.Rates, nodes []graph.NodeID) {
	fl, a := &d.fl, &d.attempt
	defer close(fl.done)
	defer func() { fl.panicked = recover() }()
	st := d.begin(fl.root.id, "rebase", "")
	liveG, liveS := frozen.Rebase()
	st.end("edges=%d", liveG.NumEdges())
	fl.epoch = liveG
	// The region's NODE set was chosen on the (possibly lagging) epoch
	// graph; its edges are extracted from the fresh live graph, so the
	// re-solve always sees current structure.
	st = d.begin(fl.root.id, "extract", "")
	region := graph.InducedEdgeIDs(liveG, nodes)
	k := 0 // cursor over nodes: both lists ascend, and edge ids group by source
	for _, e := range region {
		for _, hi := liveG.OutEdgeRange(nodes[k]); hi <= e; _, hi = liveG.OutEdgeRange(nodes[k]) {
			k++
		}
		u, v := nodes[k], liveG.EdgeTarget(e)
		a.hybrid += baseline.EdgeCost(r, u, v)
		if liveS.IsPush(e) {
			a.incumbent += r.Prod[u]
		}
		if liveS.IsPull(e) {
			a.incumbent += r.Cons[v]
		}
	}
	a.edges = len(region)
	st.end("edges=%d", a.edges)
	if a.edges == 0 {
		return // the epoch-stale region dissolved on the live graph
	}

	began := time.Now()
	fl.res, fl.err = d.regional.Solve(ctx, solver.Problem{Graph: liveG, Rates: r, Base: liveS, Region: region})
	fl.wall = time.Since(began)
	if fl.res == nil {
		return
	}
	// The regional solver saw the region in isolation, so region edges
	// whose free exterior coverage the extraction severed came back as
	// direct service. The free-coverage sweep wins them back
	// deterministically before the accept/revert decision, and the
	// exterior-amortization sweep then prices support PURCHASES the
	// isolated solve could not see: a pooled refund across the region's
	// direct edges against supports the exterior schedule already pays
	// for. Both only ever lower the patch cost, so a patch that loses
	// afterwards would have lost anyway.
	patched := fl.res.Schedule
	st = d.begin(fl.root.id, "refine", "")
	refined, sup := refine.Pass(patched, r)
	st.end("recovered=%d", refined.Recovered)
	fl.refined, fl.amort = refined, amortizeResult{}
	if !d.noAmortize {
		st = d.begin(fl.root.id, "amortize", "")
		fl.amort = d.amortize.run(patched, r, region, sup)
		st.end("upgraded=%d", fl.amort.Upgraded)
	}
	// The support table refine took (from the splice's repair walk, when the
	// solver spliced) and both sweeps kept current: the maintainer builds
	// its dependency lists from it.
	patched.KeepSupports(sup)
	st = d.begin(fl.root.id, "rebuild", "")
	fl.m = incremental.New(patched, r)
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
	d.inst.resolveWall.Add(fl.wall.Seconds())
	d.decide()
	fl.res, fl.m = nil, nil

	a.backoff = d.revertStreak
	d.stats.RegionEdges += a.edges
	d.inst.regionEdges.Add(int64(a.edges))
	d.inst.regionSize.Observe(float64(a.edges))
	// What the attempt held the ingest path up for: its start and this.
	d.inst.stall.Observe((fl.began + time.Since(began)).Seconds())
	fl.root.end("%s edges=%d", a.verdict, a.edges)
	if d.cfg.Events != nil {
		d.cfg.Events.Emit("resolve", a.String())
	}
}

// decide books what the attempt's goroutine handed back and sets the
// verdict: the patch, with the journal replayed onto it, against the
// incumbent.
func (d *Daemon) decide() {
	fl, a := &d.fl, &d.attempt
	res, m, root := fl.res, fl.m, fl.root
	if a.edges == 0 {
		// No live edge left in the region, and no solver ran, so neither
		// the revert counter nor the backoff moves.
		a.verdict = "dissolved"
		return
	}
	if res == nil {
		// Hard failure: the solver never produced a schedule. This is
		// misconfiguration or a bug, not an unprofitable re-solve, so it
		// is booked separately and does NOT feed the revert backoff —
		// backoff models "patches cannot win here", which a solver that
		// never ran says nothing about.
		d.stats.SolverErrors++
		d.inst.solverErrors.Inc()
		d.stats.LastSolverErr = fl.err
		a.verdict = "failed"
		return
	}
	// A truncated re-solve — by the rule, or by a context — still returns
	// a valid best-so-far patch (res non-nil alongside err); only hard
	// failures leave res nil, and then the maintained schedule stands.
	a.commits = res.Report.Iterations
	if fl.err != nil {
		a.stopped = "canceled"
	}
	d.stats.BoundaryRepairs += res.Report.BoundaryRepairs
	d.inst.boundaryRepairs.Add(int64(res.Report.BoundaryRepairs))

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
	a.total, a.amortized = d.m.FreshCost(), m.FreshCost()
	a.refined = a.amortized + fl.amort.Saved
	a.raw = a.refined + fl.refined.Saved
	if a.amortized >= a.total {
		st.end("incumbent=%.1f patch=%.1f revert", a.total, a.amortized)
		d.stats.Reverted++
		d.inst.reverted.Inc()
		d.revertStreak++
		a.verdict = "reverted"
		return
	}
	st.end("incumbent=%.1f patch=%.1f accept", a.total, a.amortized)
	a.verdict = "accepted"
	d.stats.Resolves++
	d.inst.resolves.Inc()
	d.stats.Amortized += fl.amort.Upgraded
	d.stats.AmortizedSaved += fl.amort.Saved
	d.inst.amortized.Add(int64(fl.amort.Upgraded))
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

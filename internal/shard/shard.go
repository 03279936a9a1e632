// Package shard solves million-edge instances by partitioning the graph,
// solving each part independently, and reconciling the per-shard
// schedules into one valid whole — the composition ROADMAP item 1 calls
// for, and the only solver here whose peak memory is O(shard), not
// O(graph).
//
// The pipeline (DESIGN.md §9 gives the validity argument):
//
//  1. Partition. partition.Locality assigns nodes to Shards servers by
//     graph structure (random-walk seeds, BFS growth, label-propagation
//     refinement), keeping hub neighborhoods — where piggybacking gains
//     live — inside one shard. The assignment is deterministic given
//     (graph, shards, seed).
//  2. Extract. Each shard's node group becomes a standalone dense-ID
//     subgraph via graph.Induced; rates are remapped alongside.
//  3. Solve. Each subgraph is solved through the solver registry
//     (Config.Inner, default chitchat), shards running concurrently up
//     to Config.Workers. Inner solvers run single-threaded — shard-level
//     concurrency already saturates the machine, and one active solve
//     per worker is what keeps peak memory O(active shard).
//  4. Reconcile. Per-shard patches are spliced into one schedule in
//     ascending shard order (core.Splice), exterior coverage is repaired
//     once (core.RepairCoverage — provably zero repairs for node-disjoint
//     shards, kept as a safety net), cut edges are covered through hubs
//     where the flags already paid for by the shard schedules make that
//     no dearer than direct service (reconcileCut), and whatever remains
//     is served directly by the hybrid rule (Finalize).
//
// Every stage is deterministic and the merge order is fixed, so the
// schedule is byte-identical across Config.Workers. With Shards = 1 the
// single "shard" is the whole graph re-indexed by Induced — an identical
// CSR — so the result reproduces the unsharded inner solver's schedule
// exactly.
//
// Sharding is a memory mechanism, not a quality one: hub neighborhoods
// in skewed social graphs span shard boundaries, so forcing more shards
// moves edges into the cut and costs schedule quality — the same
// partition penalty the paper's Figure 7 measures as server counts grow.
// The reconciliation rule bounds the damage (never worse than the hybrid
// baseline), and auto-sizing keeps graphs below ~128k edges in a single
// shard, where the solver is exactly the unsharded inner algorithm.
package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/partition"
	"piggyback/internal/solver"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// Name is the solver's registry name.
const Name = "shard"

func init() {
	solver.Default.MustRegister(Name, func(o solver.Options) solver.Solver {
		return New(Config{
			Shards:        o.Shards,
			Workers:       o.Workers,
			MaxCrossEdges: o.MaxCrossEdges,
			Progress:      o.Progress,
		})
	})
}

// autoShardEdges sizes the auto partition: one shard per ~128k edges, so
// a million-edge graph splits into 8 active-shard-sized pieces.
const autoShardEdges = 1 << 17

// Config parameterizes the sharded solver.
type Config struct {
	// Shards is the partition count; 0 sizes it from the edge count
	// (one shard per ~128k edges), and it is clamped to the node count.
	Shards int
	// Workers bounds concurrently-solving shards; 0 means GOMAXPROCS.
	// The schedule is byte-identical for every value.
	Workers int
	// Inner names the registry solver run on each shard; "" means
	// chitchat.
	Inner string
	// Registry resolves Inner; nil means solver.Default.
	Registry *solver.Registry
	// Seed varies the partition layout. The default (0) is fine; the
	// knob exists for partition-sensitivity experiments.
	Seed int64
	// MaxCrossEdges passes through to the inner solver.
	MaxCrossEdges int
	// Progress, when non-nil, receives one event per completed shard.
	Progress func(solver.ProgressEvent)
}

type shardSolver struct {
	cfg Config
}

// New returns the sharded solver under its full typed config.
func New(cfg Config) solver.Solver { return &shardSolver{cfg: cfg} }

func (s *shardSolver) Name() string { return Name }

// SupportsRegions implements solver.RegionCapable: a region re-solve is
// already a localized problem; sharding it again has no purpose.
func (s *shardSolver) SupportsRegions() bool { return false }

// ChainProgress implements solver.ProgressChainer: fn is appended to
// the per-shard progress stream, after any previously configured sink.
func (s *shardSolver) ChainProgress(fn func(solver.ProgressEvent)) {
	prev := s.cfg.Progress
	if prev == nil {
		s.cfg.Progress = fn
		return
	}
	s.cfg.Progress = func(ev solver.ProgressEvent) {
		prev(ev)
		fn(ev)
	}
}

// shardResult carries one finished shard back to the coordinator.
type shardResult struct {
	idx   int
	sub   *graph.Subgraph
	res   *solver.Result
	cause error // context cancellation, schedule still usable
	err   error // hard failure, aborts the solve
}

func (s *shardSolver) Solve(ctx context.Context, p solver.Problem) (*solver.Result, error) {
	if p.Graph == nil || p.Rates == nil {
		return nil, solver.ErrNoGraph
	}
	if p.Region != nil {
		return nil, fmt.Errorf("solver %s: %w", Name, solver.ErrRegionUnsupported)
	}
	g := p.Graph
	k := s.cfg.Shards
	if k <= 0 {
		k = 1 + g.NumEdges()/autoShardEdges
	}
	if n := g.NumNodes(); k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	inner := s.cfg.Inner
	if inner == "" {
		inner = solver.ChitChat
	}
	reg := s.cfg.Registry
	if reg == nil {
		reg = solver.Default
	}
	innerOpts := solver.Options{Workers: 1, MaxCrossEdges: s.cfg.MaxCrossEdges}
	// Fail on unknown inner names before doing any partitioning work.
	if _, err := reg.Get(inner); err != nil {
		return nil, fmt.Errorf("solver %s: inner solver: %w", Name, err)
	}

	assign := partition.Locality(g, k, s.cfg.Seed)
	groups := assign.Groups()

	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}

	// Span discipline: every shard's span is begun HERE, on the
	// coordinator, in ascending shard order — before any worker runs —
	// so the span tree is identical for every Workers value. Workers
	// only End the spans (order-independent); shards never dispatched
	// because of cancellation stay marked [open].
	tr, parent := telemetry.FromContext(ctx)
	var spans []telemetry.SpanID
	if tr != nil {
		spans = make([]telemetry.SpanID, k)
		for idx := 0; idx < k; idx++ {
			spans[idx] = tr.Begin(parent, "shard/solve",
				fmt.Sprintf("shard=%d nodes=%d", idx, len(groups[idx])))
		}
	}

	// Solve shards concurrently. Each worker builds its own inner solver
	// (Solver instances are not safe for concurrent calls) and extracts
	// its subgraph itself, so at most `workers` subgraphs and instance
	// stores are live at once.
	next := make(chan int)
	results := make(chan shardResult)
	innerCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			isv, _ := reg.New(inner, innerOpts)
			for idx := range next {
				sctx := innerCtx
				if tr != nil {
					sctx = telemetry.NewContext(innerCtx, tr, spans[idx])
				}
				start := time.Now()
				r := solveShard(sctx, isv, g, p.Rates, groups[idx], idx)
				if tr != nil {
					tr.SetDuration(spans[idx], time.Since(start))
					tr.End(spans[idx], shardAttrs(r))
				}
				results <- r
			}
		}()
	}
	go func() {
		defer close(next)
		for idx := 0; idx < k; idx++ {
			select {
			case next <- idx:
			case <-innerCtx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Coordinator: collect every shard, remember the first hard error or
	// cancellation cause, emit progress as shards land.
	subs := make([]*graph.Subgraph, k)
	patches := make([]*core.Schedule, k)
	var firstErr, cause error
	done, solved := 0, 0
	for r := range results {
		done++
		switch {
		case r.err != nil:
			if firstErr == nil {
				firstErr = r.err
				cancel()
			}
		default:
			if r.cause != nil && cause == nil {
				cause = r.cause
			}
			subs[r.idx] = r.sub
			patches[r.idx] = r.res.Schedule
			solved++
			if s.cfg.Progress != nil {
				s.cfg.Progress(solver.ProgressEvent{
					Solver:    Name,
					Iteration: solved,
					Covered:   r.sub.G.NumEdges(),
					Remaining: k - solved,
					Cost:      r.res.Report.Cost,
				})
			}
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("solver %s: shard solve: %w", Name, firstErr)
	}
	if cause == nil {
		cause = ctx.Err()
	}

	// Reconcile in fixed ascending shard order; shards are node-disjoint
	// so the patches touch disjoint edge sets and the order is cosmetic —
	// fixing it anyway keeps the merge audit-friendly and byte-stable
	// even if a future partitioner overlaps shards.
	out := core.NewSchedule(g)
	for idx := 0; idx < k; idx++ {
		if patches[idx] == nil {
			continue // canceled before this shard was solved
		}
		if err := core.Splice(out, subs[idx], patches[idx]); err != nil {
			return nil, fmt.Errorf("solver %s: splicing shard %d: %w", Name, idx, err)
		}
	}
	repairs := core.RepairCoverage(out, p.Rates)
	cutCovered := 0
	if k > 1 {
		var cut []graph.EdgeID
		g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
			if assign.Of(u) != assign.Of(v) {
				cut = append(cut, e)
			}
			return true
		})
		cutCovered = reconcileCut(out, g, p.Rates, cut)
	}
	out.Finalize(p.Rates)

	rep := solver.Report{
		Solver:          Name,
		Iterations:      k,
		CoveredEdges:    cutCovered,
		BoundaryRepairs: repairs,
		Cost:            out.Cost(p.Rates),
		Canceled:        cause != nil,
	}
	return &solver.Result{Schedule: out, Report: rep}, cause
}

// reconcileCut covers cut edges through hubs after the per-shard
// schedules are merged — the cross-shard reconciliation step. For each
// cut edge u → v in ascending id order it scans the candidate hubs
// w ∈ out(u) ∩ in(v) (two-pointer merge over sorted CSR adjacency) and
// prices covering through w as the flags still missing: prod(u) unless
// u → w already pushes, cons(v) unless w → v already pulls. The cheapest
// hub (lowest id on ties) wins if it costs no more than serving the edge
// directly — cost-neutral covers are taken because the flags they add
// are shared by later cut edges through the same hub, which is where the
// gain over the plain hybrid fallback comes from. Sequential ascending
// scan ⇒ deterministic. Returns the number of edges covered.
func reconcileCut(s *core.Schedule, g *graph.Graph, r *workload.Rates, cut []graph.EdgeID) int {
	covered := 0
	for _, e := range cut {
		if s.IsCovered(e) || s.IsPush(e) || s.IsPull(e) {
			continue
		}
		u := g.EdgeSource(e)
		v := g.EdgeTarget(e)
		direct := r.Prod[u]
		if r.Cons[v] < direct {
			direct = r.Cons[v]
		}
		outs := g.OutNeighbors(u)
		outLo, _ := g.OutEdgeRange(u)
		ins := g.InNeighbors(v)
		inIDs := g.InEdgeIDs(v)
		var bestHub graph.NodeID = -1
		var bestUp, bestDown graph.EdgeID
		bestCost := direct
		for i, j := 0, 0; i < len(outs) && j < len(ins); {
			switch {
			case outs[i] < ins[j]:
				i++
			case outs[i] > ins[j]:
				j++
			default:
				w := outs[i]
				up := outLo + graph.EdgeID(i)
				down := inIDs[j]
				cost := 0.0
				if !s.IsPush(up) {
					cost += r.Prod[u]
				}
				if !s.IsPull(down) {
					cost += r.Cons[v]
				}
				if w != u && w != v && cost <= bestCost && (bestHub < 0 || cost < bestCost) {
					bestHub, bestUp, bestDown, bestCost = w, up, down, cost
				}
				i++
				j++
			}
		}
		if bestHub >= 0 {
			s.SetPush(bestUp)
			s.SetPull(bestDown)
			s.SetCovered(e, bestHub)
			covered++
		}
	}
	return covered
}

// shardAttrs renders the deterministic End attributes for one finished
// shard — outcome class, iteration count, cost; never wall time.
func shardAttrs(r shardResult) string {
	switch {
	case r.err != nil:
		return "failed"
	case r.cause != nil:
		return fmt.Sprintf("canceled iters=%d", r.res.Report.Iterations)
	default:
		return fmt.Sprintf("ok iters=%d cost=%.1f", r.res.Report.Iterations, r.res.Report.Cost)
	}
}

// solveShard extracts one shard's subgraph and solves it.
func solveShard(ctx context.Context, isv solver.Solver, g *graph.Graph, r *workload.Rates, nodes []graph.NodeID, idx int) shardResult {
	sub := graph.Induced(g, nodes)
	lr := &workload.Rates{
		Prod: make([]float64, len(sub.Global)),
		Cons: make([]float64, len(sub.Global)),
	}
	for l, u := range sub.Global {
		lr.Prod[l] = r.Prod[u]
		lr.Cons[l] = r.Cons[u]
	}
	res, err := isv.Solve(ctx, solver.Problem{Graph: sub.G, Rates: lr})
	if err != nil && res == nil {
		return shardResult{idx: idx, err: err}
	}
	// err != nil with a non-nil result is the anytime-cancellation path:
	// the partial schedule is valid and worth splicing.
	return shardResult{idx: idx, sub: sub, res: res, cause: err}
}

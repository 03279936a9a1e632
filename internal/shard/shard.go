// Package shard solves million-edge instances by partitioning the graph,
// solving each part independently, and reconciling the per-shard
// schedules into one valid whole. It is the only solver here whose peak
// memory is O(shard), not O(graph).
//
// The pipeline (DESIGN.md §9 gives the validity argument):
//
//  1. Partition. partition.Locality assigns nodes to Shards servers by
//     graph structure (random-walk seeds, BFS growth, label-propagation
//     refinement), keeping hub neighborhoods — where piggybacking gains
//     live — inside one shard. The assignment is deterministic given
//     (graph, shards).
//  2. Extract. Each shard's node group becomes a standalone dense-ID
//     subgraph via graph.Induced; rates are remapped alongside.
//  3. Solve. Each subgraph is solved by the caller's SolveFunc (the
//     solver package binds CHITCHAT), shards fanning out on par.Blocks
//     over Config.Workers: a solve's panic reaches the caller, and a hard
//     failure returns the lowest failing shard's error. Per-shard solves
//     run single-threaded — shard-level concurrency already saturates
//     the machine, and one active solve per worker is what keeps peak
//     memory O(active shard).
//  4. Reconcile. Per-shard patches are spliced into one empty schedule
//     in ascending shard order (core.Splice; node-disjoint patches leave
//     no cover unsupported, so nothing is repaired), cut edges are
//     covered through hubs where the flags already paid for by the shard
//     schedules make that no dearer than direct service (reconcileCut),
//     and whatever remains is served directly by the hybrid rule
//     (Finalize).
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
	"sync"

	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/par"
	"piggyback/internal/partition"
	"piggyback/internal/workload"
)

// autoShardEdges sizes the auto partition: one shard per ~128k edges, so
// a million-edge graph splits into 8 active-shard-sized pieces.
const autoShardEdges = 1 << 17

// Config parameterizes the sharded solve.
type Config struct {
	// Shards is the partition count; 0 sizes it from the edge count
	// (one shard per ~128k edges), and it is clamped to the node count.
	Shards int
	// Workers bounds concurrently-solving shards; 0 means GOMAXPROCS.
	// The schedule is byte-identical for every value.
	Workers int
	// OnProgress, when non-nil, is called once per solved shard, in
	// completion order, on the worker that solved it and under a lock,
	// so calls never overlap.
	OnProgress func(Progress)
}

// Progress is one solved shard.
type Progress struct {
	Solved int     // shards solved so far, this one included
	Shards int     // the partition count
	Edges  int     // the shard's edge count
	Cost   float64 // the shard's schedule cost under its rates
}

// SolveFunc solves one shard's subgraph from scratch. A non-nil schedule
// with a non-nil error is an anytime result cut short by ctx, a nil
// schedule a hard failure that aborts the solve. Calls run concurrently,
// one per worker.
type SolveFunc func(ctx context.Context, g *graph.Graph, r *workload.Rates) (*core.Schedule, error)

// Result is a finished (or canceled) sharded solve.
type Result struct {
	Schedule *core.Schedule
	// Shards is the partition count the solve used.
	Shards int
}

// shardResult is one finished shard.
type shardResult struct {
	sub   *graph.Subgraph
	sched *core.Schedule
	cost  float64
	cause error // context cancellation, schedule still usable
	err   error // hard failure, aborts the solve
}

// SolveCtx partitions g, solves every shard with solve, and reconciles
// the shard schedules into one valid schedule of g. On cancellation it
// returns the schedule reconciled from the shards solved so far together
// with ctx's error; on a shard's hard failure it returns a zero Result
// and that error.
func SolveCtx(ctx context.Context, g *graph.Graph, r *workload.Rates, cfg Config, solve SolveFunc) (Result, error) {
	k := cfg.Shards
	if k <= 0 {
		k = 1 + g.NumEdges()/autoShardEdges
	}
	if n := g.NumNodes(); k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}

	assign := partition.Locality(g, k, 0)
	groups := assign.Groups()

	// Solve shards on par.Blocks, one span per shard. Each worker extracts
	// its subgraph itself, so at most Workers subgraphs and instance
	// stores are live at once. A shard is skipped once ctx is done or a
	// lower shard has failed, and the lowest failure is the one returned;
	// shards are taken in ascending order, so every shard below it ran.
	innerCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu      sync.Mutex
		subs    = make([]*graph.Subgraph, k)
		patches = make([]*core.Schedule, k)
		failAt  = k
		failErr error
		cause   error
		solved  int
	)
	par.Blocks(par.Workers(cfg.Workers, k, 1), k, 1, func(idx, _, _ int) {
		mu.Lock()
		skip := ctx.Err() != nil || failAt < idx
		mu.Unlock()
		if skip {
			return
		}
		res := solveShard(innerCtx, solve, g, r, groups[idx])
		mu.Lock()
		defer mu.Unlock()
		switch {
		case res.err != nil:
			if idx < failAt {
				failAt, failErr = idx, fmt.Errorf("shard %d: %w", idx, res.err)
				cancel()
			}
		default:
			if res.cause != nil && cause == nil {
				cause = res.cause
			}
			subs[idx], patches[idx] = res.sub, res.sched
			solved++
			if cfg.OnProgress != nil {
				cfg.OnProgress(Progress{Solved: solved, Shards: k, Edges: res.sub.G.NumEdges(), Cost: res.cost})
			}
		}
	})
	if failErr != nil {
		return Result{}, failErr
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
			return Result{}, fmt.Errorf("splicing shard %d: %w", idx, err)
		}
	}
	if k > 1 {
		reconcileCut(out, g, r, cutEdges(g, assign))
	}
	out.Finalize(r)
	return Result{Schedule: out, Shards: k}, cause
}

// cutEdges lists, in ascending id order, the edges whose endpoints the
// assignment puts on different shards.
func cutEdges(g *graph.Graph, assign partition.Assignment) []graph.EdgeID {
	var cut []graph.EdgeID
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if assign.Of(u) != assign.Of(v) {
			cut = append(cut, e)
		}
		return true
	})
	return cut
}

// reconcileCut covers cut edges through hubs after the per-shard
// schedules are merged — the cross-shard reconciliation step. For each
// cut edge u → v in ascending id order it scans the candidate hubs
// w ∈ out(u) ∩ in(v) — out(u) stamped once per source (graph.RowStamp),
// in(v) scanned against it, so hubs come in ascending order — and
// prices covering through w as the flags still missing: prod(u) unless
// u → w already pushes, cons(v) unless w → v already pulls. The cheapest
// hub (lowest id on ties) wins if it costs no more than serving the edge
// directly — cost-neutral covers are taken because the flags they add
// are shared by later cut edges through the same hub, which is where the
// gain over the plain hybrid fallback comes from. Sequential ascending
// scan ⇒ deterministic.
func reconcileCut(s *core.Schedule, g *graph.Graph, r *workload.Rates, cut []graph.EdgeID) {
	out := graph.NewRowStamp(g)
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
		out.Stamp(u)
		inIDs := g.InEdgeIDs(v)
		var bestHub graph.NodeID = -1
		var bestUp, bestDown graph.EdgeID
		bestCost := direct
		for j, w := range g.InNeighbors(v) {
			up, ok := out.Edge(w)
			if !ok {
				continue
			}
			down := inIDs[j]
			cost := 0.0
			if !s.IsPush(up) {
				cost += r.Prod[u]
			}
			if !s.IsPull(down) {
				cost += r.Cons[v]
			}
			if cost <= bestCost && (bestHub < 0 || cost < bestCost) {
				bestHub, bestUp, bestDown, bestCost = w, up, down, cost
			}
		}
		if bestHub >= 0 {
			s.SetPush(bestUp)
			s.SetPull(bestDown)
			s.SetCovered(e, bestHub)
		}
	}
}

// solveShard extracts one shard's subgraph and solves it.
func solveShard(ctx context.Context, solve SolveFunc, g *graph.Graph, r *workload.Rates, nodes []graph.NodeID) shardResult {
	sub := graph.Induced(g, nodes)
	lr := r.Project(sub.Global)
	sched, err := solve(ctx, sub.G, lr)
	if sched == nil {
		return shardResult{err: err}
	}
	// err != nil with a schedule is the anytime-cancellation path: the
	// partial schedule is valid and worth splicing.
	return shardResult{sub: sub, sched: sched, cost: sched.Cost(lr), cause: err}
}

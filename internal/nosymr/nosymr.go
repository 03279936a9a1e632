// Package nosymr runs PARALLELNOSY as MapReduce jobs, mirroring the
// paper's Hadoop implementation (§3.2, "Implementing PARALLELNOSY with
// MapReduce") on the in-memory engine of package mapreduce.
//
// Each iteration is two jobs plus a merge, exactly as the paper lays out:
//
//   - Job 1 (map = phase 1, reduce = phase 2): each mapper takes a
//     hub-graph — identified by its hub edge w → y — prices it, and, if
//     it is a candidate, emits one lock request per edge of the
//     hub-graph, keyed by the locked edge's id, carrying the candidate's
//     hub-edge id and gain. Each reducer receives all lock requests for
//     one edge and grants the lock to the highest-gain candidate,
//     emitting (hub edge, locked edge).
//   - Job 2 (reduce-only = phase 3): grants are grouped by hub edge; the
//     reducer looks the candidate up in the round snapshot, applies the
//     full/partial commit rule, and emits the commit: the hub edge and
//     the producers kept.
//   - Merge: commits are applied to the schedule; lock ownership makes
//     their writes conflict-free, so application order is irrelevant.
//
// The pricing, locking, and decision logic is the Evaluator from package
// nosy, so this solver and the shared-memory one are the same algorithm
// on different substrates; tests assert they produce identical schedules
// and identical per-iteration stats.
//
// Job 1's map input is the dirty set, not every edge: the merge applies
// each commit through nosy.Evaluator.Commit, which flags exactly the hub
// edges whose evaluation reads a flag the commit writes — the one
// commit→dirty rule both substrates share, realized here as the paper's
// "pull-based update dissemination" between iterations. Clean candidates
// from earlier rounds skip the pricing map and bid with their cached
// hub-graph; the lock and decide jobs see exactly the candidate set the
// full re-map would have produced, so schedules and stats are unchanged —
// only the mapped volume shrinks. The Evaluator's memoized structural
// cache carries over too: the dirty re-pricings re-walk cached
// intersections instead of recomputing them.
package nosymr

import (
	"context"

	"piggyback/internal/bitset"
	"piggyback/internal/graph"
	"piggyback/internal/mapreduce"
	"piggyback/internal/nosy"
	"piggyback/internal/workload"
)

// Solve runs PARALLELNOSY via MapReduce jobs and returns the finalized
// schedule plus per-iteration stats. cfg is interpreted exactly as in
// package nosy.
func Solve(g *graph.Graph, r *workload.Rates, cfg nosy.Config) nosy.Result {
	res, _ := SolveCtx(context.Background(), g, r, cfg)
	return res
}

// SolveCtx is Solve with cooperative cancellation, checked between
// MapReduce iterations exactly as nosy.SolveCtx checks between rounds:
// on cancellation the committed iterations are finalized with the hybrid
// rule and returned as a valid anytime schedule with the context's error.
func SolveCtx(ctx context.Context, g *graph.Graph, r *workload.Rates, cfg nosy.Config) (nosy.Result, error) {
	ev := nosy.NewEvaluator(g, r, cfg)
	opts := mapreduce.Options{Workers: cfg.Workers}
	cc := newCandCache(g.NumEdges())

	var iters []nosy.IterationStat
	var cause error
	for it := 0; cfg.MaxIterations == 0 || it < cfg.MaxIterations; it++ {
		if err := ctx.Err(); err != nil {
			cause = err
			break
		}
		stat := iterate(ev, cc, opts)
		stat.Iteration = it
		if cfg.TraceCosts {
			stat.Cost = ev.Cost() // O(1) running finalized-equivalent cost
		}
		iters = append(iters, stat)
		if cfg.OnIteration != nil {
			cfg.OnIteration(stat)
		}
		if stat.FullCommits+stat.PartialCommits == 0 {
			break
		}
	}
	ev.Schedule().Finalize(r)
	return nosy.Result{Schedule: ev.Schedule(), Iterations: iters}, cause
}

// candCache carries candidate state across iterations, the MapReduce
// counterpart of the shared-memory solver's state: dirty flags the hub
// edges whose pricing may have changed since their last evaluation,
// isCand the hub edges whose cands slot holds a live candidate, and
// cands the cached hub-graphs themselves. The first round seeds
// everything dirty; later rounds re-price only commit neighborhoods.
type candCache struct {
	dirty     *bitset.Set
	isCand    *bitset.Set
	cands     []*nosy.Candidate
	dirtyList []int32        // reused scratch: this round's dirty edges
	input     []graph.EdgeID // reused scratch: this round's Job 1 input
}

func newCandCache(m int) *candCache {
	cc := &candCache{
		dirty:  bitset.New(m),
		isCand: bitset.New(m),
		cands:  make([]*nosy.Candidate, m),
	}
	cc.dirty.SetAll()
	return cc
}

// lockRequest is Job 1's map output value: candidate identity and gain.
type lockRequest struct {
	hubEdge graph.EdgeID
	gain    float64
}

// grant is Job 1's reduce output: lockedEdge is granted to hubEdge.
// A grant with lockedEdge == candidateMarker is not a lock at all but a
// "this hub edge bid" marker used to count phase-1 candidates.
type grant struct {
	hubEdge    graph.EdgeID
	lockedEdge graph.EdgeID
}

// candidateMarker flags counting grants (no real edge has a negative id).
const candidateMarker graph.EdgeID = -1

// commit is Job 2's output: candidate hubEdge commits the producers keep
// (indices into its Xs), in full or as a partial sub-hub-graph.
type commit struct {
	hubEdge graph.EdgeID
	keep    []int32
	partial bool
}

func iterate(ev *nosy.Evaluator, cc *candCache, opts mapreduce.Options) nosy.IterationStat {
	var stat nosy.IterationStat

	// Preliminary job: materialize Job 1's input — the dirty hub edges,
	// which get re-priced, followed by the clean edges whose cached
	// candidate bids again at its cached gain. Every hub edge appears at
	// most once.
	cc.dirtyList = cc.dirty.AppendSet(cc.dirtyList[:0])
	stat.Dirty = len(cc.dirtyList)
	input := cc.input[:0]
	for _, e := range cc.dirtyList {
		input = append(input, graph.EdgeID(e))
	}
	cc.isCand.Range(func(e int) bool {
		if !cc.dirty.Test(e) {
			input = append(input, graph.EdgeID(e))
		}
		return true
	})
	cc.input = input

	// Job 1 — map: phase-1 candidate selection emitting lock requests
	// (dirty edges re-priced into the cache, clean ones served from it);
	// reduce: phase-2 lock granting. Mappers write only their own edge's
	// cache slot, so concurrent map invocations never conflict; candidacy
	// of the re-priced edges is dropped here and restored from the
	// reducers' candidate markers below, on this goroutine alone.
	for _, e := range cc.dirtyList {
		cc.isCand.Clear(int(e))
	}
	grants := mapreduce.Run(
		input,
		func(he graph.EdgeID, emit func(graph.EdgeID, lockRequest)) {
			var c *nosy.Candidate
			if cc.dirty.Test(int(he)) {
				fresh, ok := ev.EvalCandidate(he)
				if !ok {
					return
				}
				c = cc.cands[he]
				if c == nil {
					c = &nosy.Candidate{}
					cc.cands[he] = c
				}
				*c = fresh
			} else {
				c = cc.cands[he]
			}
			req := lockRequest{hubEdge: he, gain: c.Gain}
			emit(he, req)
			for j := range c.Xs {
				emit(c.XWEdges[j], req)
				emit(c.XYEdges[j], req)
			}
		},
		mapreduce.Int32Key,
		func(locked graph.EdgeID, reqs []lockRequest, emit func(grant)) {
			best := reqs[0]
			isCandidate := best.hubEdge == locked
			for _, r := range reqs[1:] {
				if r.hubEdge == locked {
					isCandidate = true
				}
				if r.gain > best.gain || (r.gain == best.gain && r.hubEdge < best.hubEdge) {
					best = r
				}
			}
			emit(grant{hubEdge: best.hubEdge, lockedEdge: locked})
			if isCandidate {
				// Every candidate bids on its own hub edge, so this reducer
				// is the one place that sees each candidate exactly once.
				emit(grant{hubEdge: locked, lockedEdge: candidateMarker})
			}
		},
		opts,
	)
	for _, e := range cc.dirtyList {
		cc.dirty.Clear(int(e)) // the dirty set is consumed
	}
	realGrants := grants[:0]
	for _, gr := range grants {
		if gr.lockedEdge == candidateMarker {
			stat.Candidates++
			cc.isCand.Set(int(gr.hubEdge))
		} else {
			realGrants = append(realGrants, gr)
		}
	}

	// Job 2 — group grants by hub edge (map), decide and emit commits
	// (reduce). The reducer reads the candidate from the round snapshot's
	// cache — the same hub-graph the full re-derivation would rebuild,
	// since clean candidates are unchanged by definition and dirty ones
	// were just re-priced. Only bidders hold grants, so every key is a
	// candidate.
	commits := mapreduce.Run(
		realGrants,
		func(gr grant, emit func(graph.EdgeID, graph.EdgeID)) {
			emit(gr.hubEdge, gr.lockedEdge)
		},
		mapreduce.Int32Key,
		func(he graph.EdgeID, locked []graph.EdgeID, emit func(commit)) {
			grantedSet := make(map[graph.EdgeID]bool, len(locked))
			for _, e := range locked {
				grantedSet[e] = true
			}
			keep, partial, ok := ev.Decide(cc.cands[he], func(e graph.EdgeID) bool { return grantedSet[e] })
			if ok {
				emit(commit{hubEdge: he, keep: keep, partial: partial})
			}
		},
		opts,
	)

	// Merge job: apply the commits. Lock ownership makes their writes
	// disjoint per edge, so order does not matter. Evaluator.Commit flags
	// what each one invalidates for the next round and keeps the running
	// cost exact.
	for _, cm := range commits {
		if cm.partial {
			stat.PartialCommits++
		} else {
			stat.FullCommits++
		}
		stat.CoveredEdges += len(cm.keep)
		ev.Commit(cc.cands[cm.hubEdge], cm.keep, cc.dirty)
	}
	return stat
}

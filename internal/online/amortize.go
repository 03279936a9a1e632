// Exterior-amortized region pricing — the PR-4 carried follow-up
// (ROADMAP item 4). The refine sweep only converts a direct edge to hub
// coverage when BOTH supports are already paid for; it never spends.
// This sweep may PURCHASE missing supports, because one support
// amortizes two ways: across the candidates that share it (one push
// u → w covers every u → v behind hub w) and against exterior flags the
// incumbent already pays for (a support that is already push or pull
// costs nothing again). After a rate spike the incumbent's direct
// choices are priced at stale rates — exactly when a pooled refund
// beats the sticker price of the supports.

package online

import (
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

// amortizeResult summarizes one sweep.
type amortizeResult struct {
	Upgraded int     // direct edges converted to purchased hub coverage
	Saved    float64 // net cost removed (refunds minus purchases)
}

// amortCand is one way to upgrade a direct edge: cover e through hub.
type amortCand struct {
	e      graph.EdgeID // the direct edge u → v
	up     graph.EdgeID // support u → hub
	down   graph.EdgeID // support hub → v
	hub    graph.NodeID
	u      graph.NodeID // source of e and of up: what buying up costs is rp(u)
	refund float64      // the direct price clearing the edge returns
	push   bool         // direct side currently paid (true: push, false: pull)
}

// amortizer is the sweep's scratch, held by the daemon across re-solves:
// flat arrays indexed by edge and node id of the graph being swept (the
// sweep used to build four maps per call, which was most of its cost).
// The zero value is ready to use.
type amortizer struct {
	needers []int32     // per edge: candidates of the current hub still needing it bought; all zero between hubs
	ends    []int32     // per node: end of the hub's group in cands
	found   []amortCand // candidates in discovery order
	cands   []amortCand // the same, grouped by hub
	out     graph.RowStamp
}

// grown returns b resized to n zeroed elements, reusing its storage.
func grown(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// run sweeps s in place, considering only the region's edges as upgrade
// candidates (nil region means every edge; a region must be ascending,
// as graph.InducedEdgeIDs returns it). sup must be s's support table, as
// refine.Pass over s returns it: a direct flag may only be cleared where
// sup.Pinned is 0, and the sweep keeps the table current as it buys. The
// schedule must be valid; it stays valid, and its cost is strictly reduced
// or untouched — every hub bundle is bought only when its pooled refund
// exceeds the price of its missing supports.
//
// Determinism: hubs are processed in ascending node id, candidates in
// ascending edge id, and the drop-to-fixpoint loop keeps the survivors in
// that order.
func (a *amortizer) run(s *core.Schedule, r *workload.Rates, region []graph.EdgeID, sup core.Supports) amortizeResult {
	g := s.Graph()

	// Collect candidates. A candidate is a region edge paying exactly one
	// direct side that nothing depends on; each hub in out(u) ∩ in(v)
	// that could serve it gets one entry, by ascending hub: v's in-row is
	// scanned against u's out-row, stamped once per source.
	a.ends = grown(a.ends, g.NumNodes())
	a.out.Reset(g)
	found := a.found[:0]
	consider := func(e graph.EdgeID, u, v graph.NodeID) {
		if s.IsCovered(e) || sup.Pinned[e] > 0 {
			return
		}
		push := s.IsPush(e)
		if push == s.IsPull(e) {
			return
		}
		refund := r.Cons[v]
		if push {
			refund = r.Prod[u]
		}
		a.out.Stamp(u)
		idsV := g.InEdgeIDs(v)
		for j, w := range g.InNeighbors(v) {
			// Neither u nor v can be w: the graph has no self-loops.
			if up, ok := a.out.Edge(w); ok {
				a.ends[w]++
				found = append(found, amortCand{
					e: e, up: up, down: idsV[j],
					hub: w, u: u, refund: refund, push: push,
				})
			}
		}
	}
	if region == nil {
		g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
			consider(e, u, v)
			return true
		})
	} else {
		u := graph.NodeID(0) // cursor: the region ascends and edge ids group by source
		for _, e := range region {
			for _, hi := g.OutEdgeRange(u); hi <= e; _, hi = g.OutEdgeRange(u) {
				u++
			}
			consider(e, u, g.EdgeTarget(e))
		}
	}
	a.found = found

	// Group by hub with a stable counting sort: discovery order is
	// ascending in e, so every group comes out ascending in e too. After
	// the scatter ends[w] is the end of hub w's group (and the start of
	// the next nonempty one).
	if cap(a.cands) < len(found) {
		a.cands = make([]amortCand, len(found))
	}
	all := a.cands[:len(found)]
	sum := int32(0)
	for w, cnt := range a.ends {
		a.ends[w] = sum
		sum += cnt
	}
	for _, c := range found {
		all[a.ends[c.hub]] = c
		a.ends[c.hub]++
	}

	// pushPrice and pullPrice return what support e still costs to turn
	// on: 0 when the needed flag is already set (exterior-paid, or bought
	// for an earlier bundle of this sweep).
	pushPrice := func(c amortCand) float64 {
		if s.IsPush(c.up) {
			return 0
		}
		return r.Prod[c.u]
	}
	pullPrice := func(e graph.EdgeID) float64 {
		if s.IsPull(e) {
			return 0
		}
		return r.Cons[g.EdgeTarget(e)]
	}
	a.needers = grown(a.needers, g.NumEdges())
	needers := a.needers

	var res amortizeResult
	lo := int32(0)
	for w, hi := range a.ends {
		if lo == hi {
			continue
		}
		// Candidates an earlier hub of this sweep upgraded are out, and so
		// are those it took as an already-paid support: clearing that flag
		// now would void the coverage resting on it (piggybacking is not
		// transitive; DESIGN.md §7). The group is ours to filter in place.
		cands := all[lo:lo]
		for _, c := range all[lo:hi] {
			if !s.IsCovered(c.e) && sup.Pinned[c.e] == 0 {
				cands = append(cands, c)
			}
		}
		lo = hi
		for _, c := range cands {
			if pushPrice(c) > 0 {
				needers[c.up]++
			}
			if pullPrice(c.down) > 0 {
				needers[c.down]++
			}
		}

		// Drop to the fixpoint: a candidate whose refund cannot even pay for
		// the missing supports ONLY it needs is dead weight, and removing it
		// strictly improves the bundle. A removal can orphan another
		// candidate's shared support, so passes repeat until one drops
		// nothing. Dropping only raises the others' exclusive price, so a
		// dead candidate stays dead and every removal order ends on the same
		// set: the largest in which none is dead. Survivors keep their order.
		for dropped := true; dropped; {
			dropped = false
			kept := cands[:0]
			for _, c := range cands {
				pUp, pDown := pushPrice(c), pullPrice(c.down)
				excl := 0.0
				if pUp > 0 && needers[c.up] == 1 {
					excl += pUp
				}
				if pDown > 0 && needers[c.down] == 1 {
					excl += pDown
				}
				if c.refund > excl {
					kept = append(kept, c)
					continue
				}
				if pUp > 0 {
					needers[c.up]--
				}
				if pDown > 0 {
					needers[c.down]--
				}
				dropped = true
			}
			cands = kept
		}

		// Price the bundle. The first candidate needing a support books
		// its price and zeroes the counter, which both dedupes shared
		// supports and leaves needers all zero for the next hub.
		refundSum, priceSum := 0.0, 0.0
		for _, c := range cands {
			refundSum += c.refund
			if p := pushPrice(c); p > 0 && needers[c.up] > 0 {
				needers[c.up] = 0
				priceSum += p
			}
			if p := pullPrice(c.down); p > 0 && needers[c.down] > 0 {
				needers[c.down] = 0
				priceSum += p
			}
		}
		if refundSum <= priceSum {
			continue
		}

		// Buy the bundle: supports first, then re-serve each candidate
		// through the hub — the schedule is valid at every step.
		for _, c := range cands {
			if pushPrice(c) > 0 {
				s.SetPush(c.up)
			}
			if pullPrice(c.down) > 0 {
				s.SetPull(c.down)
			}
		}
		for _, c := range cands {
			if c.push {
				s.ClearPush(c.e)
			} else {
				s.ClearPull(c.e)
			}
			s.SetCovered(c.e, graph.NodeID(w))
			sup.Cover(c.e, c.up, c.down)
			res.Upgraded++
		}
		res.Saved += refundSum - priceSum
	}
	return res
}

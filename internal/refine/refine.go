// Package refine post-processes a valid request schedule with a
// free-coverage sweep — an extension in the direction the paper's §4.4
// points ("the potential of social piggybacking goes beyond the
// performance of PARALLELNOSY ... interesting future work on new
// heuristics").
//
// After PARALLELNOSY converges, the schedule contains many pushes and
// pulls selected independently by different hub commits. Their
// combinations often cover additional edges for free: if a direct edge
// x → y coexists with a push x → w and a pull w → y that are both pinned
// by other obligations, then x → y can be re-served through hub w and its
// direct cost refunded. The sweep finds all such edges in
// O(Σ_e |common predecessors|) and never worsens the schedule.
package refine

import (
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

// Result summarizes a refinement pass.
type Result struct {
	Recovered int     // direct edges converted to free hub coverage
	Saved     float64 // cost removed
}

// Pass runs one free-coverage sweep over s in place. The schedule must be
// valid (Theorem 1); it stays valid, and its cost never increases. One
// pass is a fixpoint: it only clears direct flags and adds coverage,
// neither of which creates a bracket, so a second pass recovers nothing.
//
// Alongside the result it returns the obligation counts it ends with:
// pinned[e] is the number of covered edges whose hub support is e. Only
// an edge with pinned == 0 and no coverage role may have its direct flags
// cleared, which a later sweep (the online daemon's amortizer) must know.
func Pass(s *core.Schedule, r *workload.Rates) (Result, []int32) {
	g := s.Graph()
	n := g.NumNodes()

	pinned := s.TakePinned()

	// Only a pushed out-edge of u and a pulled in-edge of v can bracket
	// u → v, so those are what the sweep intersects, not out(u) ∩ in(v):
	// push[pushAt[u]:pushAt[u+1]] are u's pushed out-edges by ascending
	// target, pull[pullAt[v]:pullAt[v+1]] v's pulled in-edges by ascending
	// source pullFrom.
	cnt := s.Counts()
	pushAt := make([]int32, n+1)
	push := make([]graph.EdgeID, 0, cnt.Push)
	pullAt := make([]int32, n+1)
	pull := make([]graph.EdgeID, 0, cnt.Pull)
	pullFrom := make([]graph.NodeID, 0, cnt.Pull)
	for u := graph.NodeID(0); int(u) < n; u++ {
		lo, hi := g.OutEdgeRange(u)
		for e := lo; e < hi; e++ {
			if s.IsPush(e) {
				push = append(push, e)
			}
		}
		pushAt[u+1] = int32(len(push))
		ids := g.InEdgeIDs(u)
		for j, w := range g.InNeighbors(u) {
			if s.IsPull(ids[j]) {
				pull = append(pull, ids[j])
				pullFrom = append(pullFrom, w)
			}
		}
		pullAt[u+1] = int32(len(pull))
	}

	var res Result
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		// Candidates: edges paying a direct cost that nothing depends on.
		if s.IsCovered(e) || pinned[e] > 0 {
			return true
		}
		isPush := s.IsPush(e)
		if isPush == s.IsPull(e) {
			// Neither (invalid input, leave alone) or both (the edge is
			// doing double duty; clearing one side is a different
			// optimization with dependency subtleties — skip).
			return true
		}
		// The lowest hub w with u → w pushed and w → v pulled. The lists
		// are as of the start of the pass and the pass only ever clears
		// flags, so a hit is re-checked against the live flags: what
		// remains is exactly what a walk over the live schedule would find.
		i, iEnd := pushAt[u], pushAt[u+1]
		j, jEnd := pullAt[v], pullAt[v+1]
		for i < iEnd && j < jEnd {
			w := g.EdgeTarget(push[i])
			switch {
			case w < pullFrom[j]:
				i++
			case w > pullFrom[j]:
				j++
			default:
				up, down := push[i], pull[j]
				if s.IsPush(up) && s.IsPull(down) {
					// Refund the direct cost and pin the new supports.
					if isPush {
						res.Saved += r.Prod[u]
						s.ClearPush(e)
					} else {
						res.Saved += r.Cons[v]
						s.ClearPull(e)
					}
					s.SetCovered(e, w)
					pinned[up]++
					pinned[down]++
					res.Recovered++
					return true // next edge
				}
				i++
				j++
			}
		}
		return true
	})
	return res, pinned
}

// Run is Pass for callers that only want the result.
func Run(s *core.Schedule, r *workload.Rates) Result {
	res, _ := Pass(s, r)
	return res
}

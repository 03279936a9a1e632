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
// Alongside the result it returns the support table it ends with, taken
// from s (core.Schedule.TakeSupports) and kept current as it covers:
// Pinned[e] is the number of covered edges whose hub support is e. Only
// an edge with Pinned == 0 and no coverage role may have its direct flags
// cleared, which a later sweep (the online daemon's amortizer) must know.
func Pass(s *core.Schedule, r *workload.Rates) (Result, core.Supports) {
	g := s.Graph()
	n := g.NumNodes()

	sup := s.TakeSupports()

	// Only a pushed u → w and a pulled w → v can bracket u → v. The pulled
	// in-edges of v are pull[pullAt[v]:pullAt[v+1]], by ascending source
	// pullFrom; u's out-row is stamped once per source, so each of them is
	// matched to u → w without a search or a merge.
	pullAt := make([]int32, n+1)
	var pull []graph.EdgeID
	var pullFrom []graph.NodeID
	for v := graph.NodeID(0); int(v) < n; v++ {
		ids := g.InEdgeIDs(v)
		for j, w := range g.InNeighbors(v) {
			if s.IsPull(ids[j]) {
				pull = append(pull, ids[j])
				pullFrom = append(pullFrom, w)
			}
		}
		pullAt[v+1] = int32(len(pull))
	}

	var res Result
	var out graph.RowStamp
	out.Reset(g)
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		// Candidates: edges paying a direct cost that nothing depends on.
		if s.IsCovered(e) || sup.Pinned[e] > 0 {
			return true
		}
		isPush := s.IsPush(e)
		if isPush == s.IsPull(e) {
			// Neither (invalid input, leave alone) or both (the edge is
			// doing double duty; clearing one side is a different
			// optimization with dependency subtleties — skip).
			return true
		}
		// The lowest hub w with u → w pushed and w → v pulled. The pull
		// list is as of the start of the pass and the pass only ever clears
		// flags, so each bracket is checked against the live flags: the
		// first that holds is the hub a walk over the live schedule finds.
		out.Stamp(u)
		for j := pullAt[v]; j < pullAt[v+1]; j++ {
			up, ok := out.Edge(pullFrom[j])
			if !ok || !s.IsPush(up) || !s.IsPull(pull[j]) {
				continue
			}
			// Refund the direct cost and pin the new supports.
			if isPush {
				res.Saved += r.Prod[u]
				s.ClearPush(e)
			} else {
				res.Saved += r.Cons[v]
				s.ClearPull(e)
			}
			s.SetCovered(e, pullFrom[j])
			sup.Cover(e, up, pull[j])
			res.Recovered++
			return true // next edge
		}
		return true
	})
	return res, sup
}

// Run is Pass for callers that only want the result.
func Run(s *core.Schedule, r *workload.Rates) Result {
	res, _ := Pass(s, r)
	return res
}

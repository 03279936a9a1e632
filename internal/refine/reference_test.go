package refine

import (
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

// referencePass is the sweep Pass replaced, kept as its oracle: the full
// merge walk over out(u) ∩ in(v) of every candidate edge against the live
// flags, with pinned computed by its own closure. Pass must leave the
// same flags and hubs on every edge and return the same Result.
func referencePass(s *core.Schedule, r *workload.Rates) Result {
	g := s.Graph()

	// pinned[e] counts obligations on e's flags: covered edges whose hub
	// support is e. An edge with pinned == 0 and no coverage role may have
	// its direct flags cleared.
	pinned := make([]int32, g.NumEdges())
	pin := func(u, w, v graph.NodeID) {
		if up, ok := g.EdgeID(u, w); ok {
			pinned[up]++
		}
		if down, ok := g.EdgeID(w, v); ok {
			pinned[down]++
		}
	}
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if s.IsCovered(e) {
			pin(u, s.Hub(e), v)
		}
		return true
	})

	var res Result
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		// Candidates: edges paying a direct cost that nothing depends on.
		if s.IsCovered(e) || pinned[e] > 0 {
			return true
		}
		push := s.IsPush(e)
		pull := s.IsPull(e)
		if push == pull {
			// Neither (invalid input, leave alone) or both (the edge is
			// doing double duty; clearing one side is a different
			// optimization with dependency subtleties — skip).
			return true
		}
		// Look for a hub w with u → w already pushed and w → v already
		// pulled: walk out(u) ∩ in(v).
		outU := g.OutNeighbors(u)
		loU, _ := g.OutEdgeRange(u)
		inV := g.InNeighbors(v)
		idsV := g.InEdgeIDs(v)
		i, j := 0, 0
		for i < len(outU) && j < len(inV) {
			switch {
			case outU[i] < inV[j]:
				i++
			case outU[i] > inV[j]:
				j++
			default:
				w := outU[i]
				up := loU + graph.EdgeID(i)
				down := idsV[j]
				if w != u && w != v && s.IsPush(up) && s.IsPull(down) {
					// Refund the direct cost and pin the new supports.
					if push {
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
	return res
}

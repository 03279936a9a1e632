// Schedule patching: splice a re-solved region back into a live schedule
// while preserving the Theorem-1 validity invariant. This is the merge
// half of localized re-optimization — a churned region is extracted
// (graph.Induced), re-solved in isolation, and the patch replaces the
// region's assignments in place.
//
// Validity argument (see DESIGN.md §7): the patch is a valid schedule
// over the induced subgraph, and an induced subgraph contains every
// support edge of its internal hubs (hub and both endpoints are region
// nodes), so patched region edges are self-consistently served. The only
// edges that can break are OUTSIDE the region: an exterior covered edge
// whose hub support crosses into the region may lose the support's
// push/pull flag when the patch reassigns it. RepairCoverage restores
// exactly those flags — it only ever adds push/pull marks, so it cannot
// invalidate anything else, and the repaired schedule is valid.

package core

import (
	"fmt"

	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

// FinalizeEdges serves every still-unscheduled edge in the given set
// directly, choosing the cheaper of push and pull — Finalize restricted
// to an edge subset, for localized re-solves that must not touch edges
// outside their region.
func (s *Schedule) FinalizeEdges(r *workload.Rates, edges []graph.EdgeID) {
	for _, e := range edges {
		if s.flags[e] == 0 {
			u := s.g.EdgeSource(e)
			v := s.g.EdgeTarget(e)
			if r.Prod[u] <= r.Cons[v] {
				s.flags[e] |= FlagPush
			} else {
				s.flags[e] |= FlagPull
			}
		}
	}
}

// ClearEdge removes every assignment from edge e (push, pull, coverage).
func (s *Schedule) ClearEdge(e graph.EdgeID) {
	s.flags[e] = 0
	s.hub[e] = -1
	s.pinned = nil
}

// ApplyPatch splices patch — a valid schedule over sub.G, an induced
// subgraph of s's graph — into s: every region-internal edge takes the
// patch's assignment (hub ids remapped to parent ids), then
// RepairCoverage restores any exterior coverage whose support flags the
// patch removed. The splice is atomic from the caller's perspective: s
// is mutated only through this call, and on return it is valid whenever
// it was valid before and patch is valid over sub.G.
//
// It returns the number of boundary repairs performed.
func ApplyPatch(s *Schedule, sub *graph.Subgraph, patch *Schedule, r *workload.Rates) (int, error) {
	if err := Splice(s, sub, patch); err != nil {
		return 0, err
	}
	// The repair resolves every covered edge's supports: have it leave the
	// counts for the sweep that follows a region splice (TakePinned).
	pinned := make([]int32, len(s.flags))
	repairs := repairCoverage(s, r, pinned)
	s.pinned = pinned
	return repairs, nil
}

// Splice is ApplyPatch without the repair pass: it writes patch's
// assignments into s and leaves any exterior coverage whose support the
// patch cleared unrepaired. Callers splicing SEVERAL patches — the
// sharded solver merging node-disjoint per-shard schedules — use it to
// pay RepairCoverage's full-graph sweep once after the last splice
// instead of once per patch. A schedule holding un-repaired splices is
// not necessarily valid; it must not escape before RepairCoverage runs.
func Splice(s *Schedule, sub *graph.Subgraph, patch *Schedule) error {
	if patch.Graph() != sub.G {
		return fmt.Errorf("core: patch schedule is not over the subgraph")
	}
	// Resolve the whole sub → parent edge mapping BEFORE writing
	// anything: a stale subgraph (an edge since removed from s's graph)
	// must fail without leaving s half-spliced.
	gids := make([]graph.EdgeID, sub.G.NumEdges())
	var err error
	sub.G.Edges(func(pe graph.EdgeID, lu, lv graph.NodeID) bool {
		gu, gv := sub.Global[lu], sub.Global[lv]
		ge, ok := s.g.EdgeID(gu, gv)
		if !ok {
			err = fmt.Errorf("core: patch edge %d→%d missing from parent graph", gu, gv)
			return false
		}
		gids[pe] = ge
		return true
	})
	if err != nil {
		return err
	}
	sub.G.Edges(func(pe graph.EdgeID, lu, lv graph.NodeID) bool {
		ge := gids[pe]
		s.ClearEdge(ge)
		if patch.IsPush(pe) {
			s.SetPush(ge)
		}
		if patch.IsPull(pe) {
			s.SetPull(ge)
		}
		if patch.IsCovered(pe) {
			s.SetCovered(ge, sub.Global[patch.Hub(pe)])
		}
		return true
	})
	return nil
}

// RepairCoverage restores the validity of covered edges whose hub
// support flags have been cleared (by a region re-solve whose boundary
// crossed the supports): the missing push/pull marks are re-added. A
// covered edge whose support EDGE no longer exists in the graph cannot
// be repaired that way and falls back to direct service with the
// cheaper of push and pull. Repairs only add flags, so a repair never
// invalidates another edge. Returns the number of edges touched.
func RepairCoverage(s *Schedule, r *workload.Rates) int { return repairCoverage(s, r, nil) }

// repairCoverage also counts into pinned, when non-nil, the covered edges
// resting on each support it resolves.
func repairCoverage(s *Schedule, r *workload.Rates, pinned []int32) int {
	repairs := 0
	s.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if !s.IsCovered(e) {
			return true
		}
		w := s.hub[e]
		up, ok1 := s.g.EdgeID(u, w)
		down, ok2 := s.g.EdgeID(w, v)
		if !ok1 || !ok2 {
			s.ClearCovered(e)
			if r.Prod[u] <= r.Cons[v] {
				s.SetPush(e)
			} else {
				s.SetPull(e)
			}
			repairs++
			return true
		}
		if pinned != nil {
			pinned[up]++
			pinned[down]++
		}
		fixed := false
		if !s.IsPush(up) {
			s.SetPush(up)
			fixed = true
		}
		if !s.IsPull(down) {
			s.SetPull(down)
			fixed = true
		}
		if fixed {
			repairs++
		}
		return true
	})
	return repairs
}

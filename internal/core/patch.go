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

// ClearEdge removes every assignment from edge e (push, pull, coverage).
func (s *Schedule) ClearEdge(e graph.EdgeID) {
	s.flags[e] = 0
	s.hub[e] = -1
	s.sup = Supports{}
}

// ApplyPatch splices patch — a valid schedule over sub.G, a subgraph
// graph.Induced extracted from s's graph — into s: every region-internal
// edge takes the patch's assignment (hub ids remapped to parent ids), then
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
	// The repair resolves every covered edge's supports: have it leave them
	// for the sweeps that follow a region splice (TakeSupports).
	t := newSupports(len(s.flags))
	repairs := walkSupports(s, r, t)
	s.sup = t
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
	// The subgraph carries each edge's parent id, which names an edge of s
	// only if s's graph is the parent: a subgraph extracted elsewhere (a
	// stale epoch) fails here, before anything is written.
	if sub.Parent != s.g {
		return fmt.Errorf("core: subgraph was not extracted from the schedule's graph")
	}
	for pe, ge := range sub.GlobalEdge {
		pe := graph.EdgeID(pe)
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
	}
	return nil
}

// RepairCoverage restores the validity of covered edges whose hub
// support flags have been cleared (by a region re-solve whose boundary
// crossed the supports): the missing push/pull marks are re-added. A
// covered edge whose support EDGE no longer exists in the graph cannot
// be repaired that way and falls back to direct service with the
// cheaper of push and pull. Repairs only add flags, so a repair never
// invalidates another edge. Returns the number of edges touched.
func RepairCoverage(s *Schedule, r *workload.Rates) int { return walkSupports(s, r, Supports{}) }

// walkSupports resolves the supports of every covered edge of s, in edge
// order, and records them in t unless t is the zero table. With r non-nil
// it is also RepairCoverage's walk; with r nil it writes nothing to s and
// leaves a covered edge with a missing support covered, -1 in the table.
// Edges group by source, so each source's out-row is stamped once and only
// the down support w → v is searched.
func walkSupports(s *Schedule, r *workload.Rates, t Supports) int {
	var st graph.RowStamp
	st.Reset(s.g)
	repairs := 0
	s.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if !s.IsCovered(e) {
			return true
		}
		w := s.hub[e]
		st.Stamp(u)
		up, ok1 := st.Edge(w)
		down, ok2 := s.g.EdgeID(w, v)
		if r != nil && !(ok1 && ok2) {
			s.ClearCovered(e)
			if r.Prod[u] <= r.Cons[v] {
				s.SetPush(e)
			} else {
				s.SetPull(e)
			}
			repairs++
			return true
		}
		if t.Pinned != nil {
			if ok1 {
				t.Up[e] = up
				t.Pinned[up]++
			}
			if ok2 {
				t.Down[e] = down
				t.Pinned[down]++
			}
		}
		if r == nil {
			return true
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

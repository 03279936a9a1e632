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
// push/pull flag when the patch reassigns it; its support EDGES stay, since
// a splice changes no graph edge. ApplyPatch's walk restores exactly those
// flags — it only ever adds push/pull marks, so it cannot invalidate
// anything else, and the repaired schedule is valid.

package core

import (
	"fmt"

	"piggyback/internal/graph"
)

// ClearEdge removes every assignment from edge e (push, pull, coverage).
func (s *Schedule) ClearEdge(e graph.EdgeID) {
	s.flags[e] = 0
	s.hub[e] = -1
}

// ApplyPatch splices patch — a valid schedule over sub.G, a subgraph
// graph.Induced extracted from s's graph — into s: every region-internal
// edge takes the patch's assignment (hub ids remapped to parent ids), then
// one walk over the covered edges restores the support flags of any
// exterior coverage the patch removed. The splice is atomic from the
// caller's perspective: s is mutated only through this call, and on return
// it is valid whenever it was valid before and patch is valid over sub.G.
//
// It returns the number of boundary repairs performed and the support
// table the repair walk resolved on the way, which is WalkSupports' of the
// spliced schedule: the refine sweep that follows a region splice takes it
// from here.
func ApplyPatch(s *Schedule, sub *graph.Subgraph, patch *Schedule) (int, Supports, error) {
	if err := Splice(s, sub, patch); err != nil {
		return 0, Supports{}, err
	}
	t, repairs := walkSupports(s, true)
	return repairs, t, nil
}

// Splice is ApplyPatch without the repair walk: it writes patch's
// assignments into s and leaves any exterior coverage whose support the
// patch cleared unrepaired. The sharded solver splices its node-disjoint
// per-shard schedules into an empty schedule with it: each patch's covers
// rest on its own shard's edges, which no other patch touches, and no cut
// edge is covered yet, so there is nothing to repair (DESIGN.md §9).
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

// WalkSupports returns the support table of s, walked now. It reads s and
// writes nothing; a covered edge with a missing support is -1 there.
func WalkSupports(s *Schedule) Supports {
	t, _ := walkSupports(s, false)
	return t
}

// walkSupports resolves the supports of every covered edge of s, in edge
// order, into a fresh table. With repair set it also adds a support's
// missing push or pull — only where both supports were found, so a covered
// edge whose support is not in the graph stays -1 in the table and never
// flags a wrong edge — and returns the number of covered edges it touched.
// Edges group by source, so each source's out-row is stamped once and only
// the down support w → v is searched.
func walkSupports(s *Schedule, repair bool) (Supports, int) {
	t := newSupports(len(s.flags))
	st := graph.NewRowStamp(s.g)
	repairs := 0
	s.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if !s.IsCovered(e) {
			return true
		}
		w := s.hub[e]
		st.Stamp(u)
		up, ok1 := st.Edge(w)
		down, ok2 := s.g.EdgeID(w, v)
		if ok1 {
			t.Up[e] = up
			t.Pinned[up]++
		}
		if ok2 {
			t.Down[e] = down
			t.Pinned[down]++
		}
		if !repair || !ok1 || !ok2 {
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
	return t, repairs
}

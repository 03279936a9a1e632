// Package core defines the paper's central abstractions: the request
// schedule (push set H, pull set L, hub-covered set C), the throughput
// cost model c(H, L) and the bounded-staleness validity check of Theorem 1.
// The active-store model of Theorem 3 lives in the package's tests, which
// check that an active schedule never beats its passive form.
package core

import (
	"fmt"

	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

// Flag records how an edge participates in a schedule. An edge may be both
// push and pull (it can serve itself one way and support a hub the other
// way), and a covered edge carries the hub it is covered through.
type Flag uint8

const (
	// FlagPush marks the edge as a member of the push set H.
	FlagPush Flag = 1 << iota
	// FlagPull marks the edge as a member of the pull set L.
	FlagPull
	// FlagCovered marks the edge as covered by piggybacking through a hub.
	FlagCovered
)

// Schedule is a request schedule over a fixed graph. The zero value is not
// usable; call NewSchedule.
type Schedule struct {
	g     *graph.Graph
	flags []Flag
	hub   []graph.NodeID // hub[e] = hub node for covered edge e, else -1
	// sup is TakeSupports' result as ApplyPatch's repair walk or
	// KeepSupports left it; zero once coverage has changed since (or it
	// was taken).
	sup Supports
}

// Supports is the support table of a schedule: what a walk over its
// covered edges resolves, handed from step to step so that no later step
// searches for a support again.
type Supports struct {
	// Pinned[e] is the number of covered edges whose hub support e is: the
	// obligations a sweep that clears direct flags must respect.
	Pinned []int32
	// Up[e] and Down[e] are the supports u → w and w → v of a covered edge
	// e = u → v through hub w; -1 on an uncovered edge and for a support
	// missing from the graph.
	Up, Down []graph.EdgeID
}

// newSupports returns an empty table for m edges.
func newSupports(m int) Supports {
	t := Supports{Pinned: make([]int32, m), Up: make([]graph.EdgeID, m), Down: make([]graph.EdgeID, m)}
	for e := range t.Up {
		t.Up[e], t.Down[e] = -1, -1
	}
	return t
}

// Cover records that covered edge e now rests on up and down.
func (t Supports) Cover(e, up, down graph.EdgeID) {
	t.Up[e], t.Down[e] = up, down
	t.Pinned[up]++
	t.Pinned[down]++
}

// NewSchedule returns an empty schedule (no edge scheduled yet) for g.
func NewSchedule(g *graph.Graph) *Schedule {
	hub := make([]graph.NodeID, g.NumEdges())
	for i := range hub {
		hub[i] = -1
	}
	return &Schedule{
		g:     g,
		flags: make([]Flag, g.NumEdges()),
		hub:   hub,
	}
}

// Graph returns the underlying graph.
func (s *Schedule) Graph() *graph.Graph { return s.g }

// Clone returns an independent deep copy.
func (s *Schedule) Clone() *Schedule { return s.CloneInto(nil) }

// CloneInto makes dst an independent deep copy of s, reusing dst's arrays
// where they are large enough, and returns it; a nil dst allocates.
func (s *Schedule) CloneInto(dst *Schedule) *Schedule {
	if dst == nil {
		dst = &Schedule{}
	}
	*dst = Schedule{
		g:     s.g,
		flags: append(dst.flags[:0], s.flags...),
		hub:   append(dst.hub[:0], s.hub...),
	}
	return dst
}

// SetPush adds edge e to the push set H.
func (s *Schedule) SetPush(e graph.EdgeID) { s.flags[e] |= FlagPush }

// SetPull adds edge e to the pull set L.
func (s *Schedule) SetPull(e graph.EdgeID) { s.flags[e] |= FlagPull }

// SetCovered marks edge e as covered through hub w.
func (s *Schedule) SetCovered(e graph.EdgeID, w graph.NodeID) {
	s.flags[e] |= FlagCovered
	s.hub[e] = w
	s.sup = Supports{}
}

// ClearCovered removes coverage from edge e (incremental maintenance).
func (s *Schedule) ClearCovered(e graph.EdgeID) {
	s.flags[e] &^= FlagCovered
	s.hub[e] = -1
	s.sup = Supports{}
}

// TakeSupports returns the schedule's support table, which the caller then
// owns. ApplyPatch's repair walk resolves every support to repair it, so
// right after it — a region re-solve's splice — that table is handed over,
// as is one given back with KeepSupports; otherwise the same walk runs now.
// A walk reads the schedule and writes nothing.
func (s *Schedule) TakeSupports() Supports {
	if t := s.sup; t.Pinned != nil {
		s.sup = Supports{}
		return t
	}
	t := newSupports(len(s.flags))
	walkSupports(s, nil, t)
	return t
}

// KeepSupports hands t to the next TakeSupports. t must be s's table as
// TakeSupports returned it, kept current (Supports.Cover) through every
// coverage change the caller has made since: the refine sweep that follows
// a splice hands it on this way to incremental.New.
func (s *Schedule) KeepSupports(t Supports) { s.sup = t }

// ClearPush removes e from H.
func (s *Schedule) ClearPush(e graph.EdgeID) { s.flags[e] &^= FlagPush }

// ClearPull removes e from L.
func (s *Schedule) ClearPull(e graph.EdgeID) { s.flags[e] &^= FlagPull }

// IsPush reports whether e ∈ H.
func (s *Schedule) IsPush(e graph.EdgeID) bool { return s.flags[e]&FlagPush != 0 }

// IsPull reports whether e ∈ L.
func (s *Schedule) IsPull(e graph.EdgeID) bool { return s.flags[e]&FlagPull != 0 }

// IsCovered reports whether e is covered through a hub.
func (s *Schedule) IsCovered(e graph.EdgeID) bool { return s.flags[e]&FlagCovered != 0 }

// IsScheduled reports whether e is served at all (push, pull or covered).
func (s *Schedule) IsScheduled(e graph.EdgeID) bool { return s.flags[e] != 0 }

// Hub returns the hub node of a covered edge, or -1.
func (s *Schedule) Hub(e graph.EdgeID) graph.NodeID { return s.hub[e] }

// Counts summarizes set sizes.
type Counts struct {
	Push    int // |H|
	Pull    int // |L|
	Covered int // edges served via hubs
	Both    int // edges in H ∩ L
	Direct  int // edges in exactly one of H, L and not covered
	Unset   int // edges with no assignment (schedule not finalized)
}

// Counts tallies membership over all edges.
func (s *Schedule) Counts() Counts {
	var c Counts
	for _, f := range s.flags {
		push := f&FlagPush != 0
		pull := f&FlagPull != 0
		cov := f&FlagCovered != 0
		if push {
			c.Push++
		}
		if pull {
			c.Pull++
		}
		if cov {
			c.Covered++
		}
		if push && pull {
			c.Both++
		}
		if (push != pull) && !cov {
			c.Direct++
		}
		if f == 0 {
			c.Unset++
		}
	}
	return c
}

// Cost returns the throughput cost c(H, L) = Σ_{u→v∈H} rp(u) +
// Σ_{u→v∈L} rc(v). Covered edges cost nothing beyond the pushes and pulls
// that realize their hubs, which are already members of H and L.
func (s *Schedule) Cost(r *workload.Rates) float64 {
	total := 0.0
	s.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		f := s.flags[e]
		if f&FlagPush != 0 {
			total += r.Prod[u]
		}
		if f&FlagPull != 0 {
			total += r.Cons[v]
		}
		return true
	})
	return total
}

// Finalize serves every still-unscheduled edge directly, choosing the
// cheaper of push and pull per edge (the hybrid rule). Algorithms call
// this after hub selection so the schedule satisfies bounded staleness.
func (s *Schedule) Finalize(r *workload.Rates) {
	s.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if s.flags[e] == 0 {
			if r.Prod[u] <= r.Cons[v] {
				s.flags[e] |= FlagPush
			} else {
				s.flags[e] |= FlagPull
			}
		}
		return true
	})
}

// Validate checks the Theorem 1 feasibility condition: every edge u → v is
// (i) in H, (ii) in L, or (iii) covered through a hub w with u → w ∈ H and
// w → v ∈ L, where both support edges exist in the graph. A schedule that
// passes guarantees bounded staleness with Θ = 2Δ.
func (s *Schedule) Validate() error {
	var err error
	s.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		f := s.flags[e]
		if f&(FlagPush|FlagPull) != 0 {
			return true
		}
		if f&FlagCovered == 0 {
			err = fmt.Errorf("core: edge %d (%d→%d) is not served", e, u, v)
			return false
		}
		w := s.hub[e]
		if w < 0 {
			err = fmt.Errorf("core: covered edge %d (%d→%d) has no hub", e, u, v)
			return false
		}
		up, ok := s.g.EdgeID(u, w)
		if !ok {
			err = fmt.Errorf("core: hub edge %d→%d missing for covered edge %d→%d", u, w, u, v)
			return false
		}
		down, ok := s.g.EdgeID(w, v)
		if !ok {
			err = fmt.Errorf("core: hub edge %d→%d missing for covered edge %d→%d", w, v, u, v)
			return false
		}
		if !s.IsPush(up) {
			err = fmt.Errorf("core: support edge %d→%d of hub %d is not a push", u, w, w)
			return false
		}
		if !s.IsPull(down) {
			err = fmt.Errorf("core: support edge %d→%d of hub %d is not a pull", w, v, w)
			return false
		}
		return true
	})
	return err
}

// AppendPushSet appends u's push set to out, in out-edge order: the users
// whose views must be updated when u shares an event (excluding u's own
// view, which is implicit). This is the h[u] of Algorithm 3.
func (s *Schedule) AppendPushSet(out []graph.NodeID, u graph.NodeID) []graph.NodeID {
	lo, hi := s.g.OutEdgeRange(u)
	for e := lo; e < hi; e++ {
		if s.IsPush(e) {
			out = append(out, s.g.EdgeTarget(e))
		}
	}
	return out
}

// AppendPullSet appends v's pull set to out, in in-edge order: the views
// that must be queried to assemble v's event stream (excluding v's own
// view, which is implicit). This is the l[u] of Algorithm 3.
func (s *Schedule) AppendPullSet(out []graph.NodeID, v graph.NodeID) []graph.NodeID {
	in := s.g.InNeighbors(v)
	ids := s.g.InEdgeIDs(v)
	for i, e := range ids {
		if s.IsPull(e) {
			out = append(out, in[i])
		}
	}
	return out
}

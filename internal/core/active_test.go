package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/workload"
)

// ActiveSchedule models active stores (Definition 5). No product code
// builds one; it is here to check the paper's reason for searching passive
// schedules only. In addition to push and pull sets, each scheduled edge
// w → u carries a propagation set P_u(w) ⊆ V of common subscribers of u
// and w; when u's view first stores an event produced by w, the store
// pushes it onward to every view in the set. Theorem 3 shows any such schedule can be simulated by a passive one
// at no greater cost; Passivize implements that simulation.
type ActiveSchedule struct {
	*Schedule
	// prop[e] for edge e = (w → u) lists the onward targets v; each v must
	// subscribe to w (w → v ∈ E), keeping views free of junk events.
	prop map[graph.EdgeID][]graph.NodeID
}

// NewActiveSchedule wraps an empty schedule for g.
func NewActiveSchedule(g *graph.Graph) *ActiveSchedule {
	return &ActiveSchedule{
		Schedule: NewSchedule(g),
		prop:     make(map[graph.EdgeID][]graph.NodeID),
	}
}

// AddPropagation appends v to the propagation set of edge e = (w → u).
// It returns an error if v is not a common subscriber of w and u
// (Definition 5 requires propagation targets subscribe to the producer).
func (a *ActiveSchedule) AddPropagation(e graph.EdgeID, v graph.NodeID) error {
	w := a.g.EdgeSource(e)
	u := a.g.EdgeTarget(e)
	if !a.g.HasEdge(w, v) {
		return fmt.Errorf("core: propagation target %d does not subscribe to producer %d", v, w)
	}
	if !a.g.HasEdge(u, v) {
		return fmt.Errorf("core: propagation target %d does not subscribe to relay %d", v, u)
	}
	a.prop[e] = append(a.prop[e], v)
	return nil
}

// Propagation returns the propagation set of edge e (nil if empty).
func (a *ActiveSchedule) Propagation(e graph.EdgeID) []graph.NodeID { return a.prop[e] }

// Cost of an active schedule: pushes and pulls as usual, plus each
// propagation entry on edge (w → u) costs rp(w) — the store issues one
// update per new event of w, exactly like a client-side push.
func (a *ActiveSchedule) Cost(r *workload.Rates) float64 {
	total := a.Schedule.Cost(r)
	for e, targets := range a.prop {
		w := a.g.EdgeSource(e)
		total += float64(len(targets)) * r.Prod[w]
	}
	return total
}

// reachable computes the views that receive w's events under the active
// schedule: direct pushes seed the set, then propagation sets extend it
// transitively (chains of pushes u → w1 → … → wk).
func (a *ActiveSchedule) reachable(w graph.NodeID) map[graph.NodeID]bool {
	reached := make(map[graph.NodeID]bool)
	var frontier []graph.NodeID
	lo, hi := a.g.OutEdgeRange(w)
	for e := lo; e < hi; e++ {
		if a.IsPush(e) {
			v := a.g.EdgeTarget(e)
			if !reached[v] {
				reached[v] = true
				frontier = append(frontier, v)
			}
		}
	}
	for len(frontier) > 0 {
		u := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		// Events of w sitting in u's view propagate along P_u(w), which is
		// attached to the edge w → u... but chains also relay events the
		// relay node itself received transitively. Definition 5 keys the
		// set by (producer w, holder u): propagation happens when u's view
		// stores an event produced by w for the first time, regardless of
		// how it arrived.
		if e, ok := a.g.EdgeID(w, u); ok {
			for _, v := range a.prop[e] {
				if !reached[v] {
					reached[v] = true
					frontier = append(frontier, v)
				}
			}
		}
	}
	return reached
}

// Passivize converts the active schedule into a passive schedule of no
// greater cost (Theorem 3): every view reachable from producer w through
// push+propagation chains becomes a direct push w → v; pulls carry over
// unchanged, as does hub coverage.
func (a *ActiveSchedule) Passivize() *Schedule {
	out := a.Schedule.Clone()
	for w := 0; w < a.g.NumNodes(); w++ {
		src := graph.NodeID(w)
		for v := range a.reachable(src) {
			if e, ok := a.g.EdgeID(src, v); ok {
				out.SetPush(e)
			}
		}
	}
	// Propagation is gone; nothing else changes.
	return out
}

// ValidateActive checks feasibility for active schedules: every edge is
// push, pull, hub-covered, or its target is reachable from its source via
// push+propagation chains.
func (a *ActiveSchedule) ValidateActive() error {
	var err error
	a.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if a.IsPush(e) || a.IsPull(e) {
			return true
		}
		if a.IsCovered(e) {
			if hubErr := a.validateHub(e, u, v); hubErr != nil {
				err = hubErr
				return false
			}
			return true
		}
		if !a.reachable(u)[v] {
			err = fmt.Errorf("core: active schedule does not serve edge %d→%d", u, v)
			return false
		}
		return true
	})
	return err
}

func (a *ActiveSchedule) validateHub(e graph.EdgeID, u, v graph.NodeID) error {
	w := a.Hub(e)
	up, ok1 := a.g.EdgeID(u, w)
	down, ok2 := a.g.EdgeID(w, v)
	if w < 0 || !ok1 || !ok2 || !a.IsPush(up) || !a.IsPull(down) {
		return fmt.Errorf("core: invalid hub %d for edge %d→%d", w, u, v)
	}
	return nil
}

// chainGraph: 0→1, 0→2, 0→3, 1→2, 2→3. Producer 0 can reach 2 and 3
// through a push chain 0→1 with propagation.
func chainGraph() *graph.Graph {
	return graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 0, To: 3},
		{From: 1, To: 2}, {From: 2, To: 3},
	})
}

func TestActivePropagationChain(t *testing.T) {
	g := chainGraph()
	a := NewActiveSchedule(g)
	e01, _ := g.EdgeID(0, 1)
	a.SetPush(e01)
	// Propagate 0's events from 1's view to 2 (2 subscribes to both 0 and 1).
	if err := a.AddPropagation(e01, 2); err != nil {
		t.Fatal(err)
	}
	// And from 2's view onward to 3 (3 subscribes to 0 and 2).
	e02, _ := g.EdgeID(0, 2)
	if err := a.AddPropagation(e02, 3); err != nil {
		t.Fatal(err)
	}
	reach := a.reachable(0)
	for _, v := range []graph.NodeID{1, 2, 3} {
		if !reach[v] {
			t.Fatalf("view %d not reached by active chain", v)
		}
	}
	// Remaining edges served directly so the whole schedule validates.
	e12, _ := g.EdgeID(1, 2)
	e23, _ := g.EdgeID(2, 3)
	a.SetPush(e12)
	a.SetPush(e23)
	if err := a.ValidateActive(); err != nil {
		t.Fatal(err)
	}
}

func TestAddPropagationRejectsNonSubscribers(t *testing.T) {
	g := chainGraph()
	a := NewActiveSchedule(g)
	e12, _ := g.EdgeID(1, 2)
	// 3 subscribes to 2 but not to 1 → propagating 1's events to 3 is junk.
	if err := a.AddPropagation(e12, 3); err == nil {
		t.Fatal("propagation to non-subscriber of producer should be rejected")
	}
	// 1 does not subscribe to 0's relay... 0→1 exists; target must also
	// subscribe to the relay: propagate on edge 0→3 to 1 (1 subscribes to
	// 0 but not to 3).
	e03, _ := g.EdgeID(0, 3)
	if err := a.AddPropagation(e03, 1); err == nil {
		t.Fatal("propagation to non-subscriber of relay should be rejected")
	}
}

func TestPassivizeCoversAndCostsNoMore(t *testing.T) {
	g := chainGraph()
	r := workload.LogDegree(g, 5)
	a := NewActiveSchedule(g)
	e01, _ := g.EdgeID(0, 1)
	e02, _ := g.EdgeID(0, 2)
	e12, _ := g.EdgeID(1, 2)
	e23, _ := g.EdgeID(2, 3)
	a.SetPush(e01)
	a.AddPropagation(e01, 2)
	a.AddPropagation(e02, 3)
	a.SetPush(e12)
	a.SetPush(e23)
	if err := a.ValidateActive(); err != nil {
		t.Fatal(err)
	}
	p := a.Passivize()
	if err := p.Validate(); err != nil {
		t.Fatalf("passivized schedule invalid: %v", err)
	}
	if p.Cost(r) > a.Cost(r)+1e-9 {
		t.Fatalf("Theorem 3 violated: passive cost %v > active cost %v", p.Cost(r), a.Cost(r))
	}
}

// Property: for random graphs with random active schedules (pushes plus
// random legal propagation entries), Passivize yields a schedule covering
// at least the same edges, at no greater cost (Theorem 3).
func TestQuickTheorem3(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		g := graphgen.ErdosRenyi(n, 5*n, seed)
		r := workload.LogDegree(g, 5)
		a := NewActiveSchedule(g)
		// Random pushes on ~half the edges.
		g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
			if rng.Float64() < 0.5 {
				a.SetPush(e)
			}
			return true
		})
		// Random propagation attempts; only legal ones stick.
		for i := 0; i < n; i++ {
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			v := graph.NodeID(rng.Intn(n))
			_ = a.AddPropagation(e, v) // error means skipped
		}
		p := a.Passivize()
		if p.Cost(r) > a.Cost(r)+1e-9 {
			return false
		}
		// Coverage: every edge whose target was actively reachable must now
		// be a direct push.
		ok := true
		g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
			if a.reachable(u)[v] && !p.IsPush(e) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

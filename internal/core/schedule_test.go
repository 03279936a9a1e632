package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/workload"
)

// hubGraph builds the paper's Figure 2 example: Art(0) → Charlie(1),
// Charlie(1) → Billie(2), Art(0) → Billie(2). The edge 0→2 can be covered
// through hub 1.
func hubGraph() *graph.Graph {
	return graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
	})
}

func TestEmptyScheduleInvalid(t *testing.T) {
	g := hubGraph()
	s := NewSchedule(g)
	if err := s.Validate(); err == nil {
		t.Fatal("empty schedule should fail Theorem-1 validation")
	}
}

func TestPiggybackingValid(t *testing.T) {
	g := hubGraph()
	s := NewSchedule(g)
	up, _ := g.EdgeID(0, 1)
	cross, _ := g.EdgeID(0, 2)
	down, _ := g.EdgeID(1, 2)
	s.SetPush(up)
	s.SetPull(down)
	s.SetCovered(cross, 1)
	if err := s.Validate(); err != nil {
		t.Fatalf("hub schedule invalid: %v", err)
	}
	c := s.Counts()
	if c.Push != 1 || c.Pull != 1 || c.Covered != 1 || c.Unset != 0 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestCoveredWithoutSupportInvalid(t *testing.T) {
	g := hubGraph()
	up, _ := g.EdgeID(0, 1)
	cross, _ := g.EdgeID(0, 2)
	down, _ := g.EdgeID(1, 2)

	// Missing pull on w→v.
	s := NewSchedule(g)
	s.SetPush(up)
	s.SetPush(down) // wrong direction of service
	s.SetCovered(cross, 1)
	if err := s.Validate(); err == nil {
		t.Fatal("cover without pull support should be invalid")
	}

	// Missing push on u→w.
	s = NewSchedule(g)
	s.SetPull(up)
	s.SetPull(down)
	s.SetCovered(cross, 1)
	if err := s.Validate(); err == nil {
		t.Fatal("cover without push support should be invalid")
	}

	// Hub with no graph edge: cover 0→1 through 2 (needs 0→2 ∈ E, 2→1 ∈ E;
	// the latter is missing).
	s = NewSchedule(g)
	s.SetCovered(up, 2)
	s.SetPush(cross)
	s.SetPull(down)
	if err := s.Validate(); err == nil {
		t.Fatal("cover through nonexistent hub edge should be invalid")
	}
}

func TestCostModel(t *testing.T) {
	g := hubGraph()
	r := &workload.Rates{Prod: []float64{2, 3, 5}, Cons: []float64{7, 11, 13}}
	s := NewSchedule(g)
	up, _ := g.EdgeID(0, 1)
	cross, _ := g.EdgeID(0, 2)
	down, _ := g.EdgeID(1, 2)
	s.SetPush(up)          // costs rp(0) = 2
	s.SetPull(down)        // costs rc(2) = 13
	s.SetCovered(cross, 1) // free
	if got := s.Cost(r); got != 15 {
		t.Fatalf("Cost = %v, want 15", got)
	}

	// Both push and pull on the same edge costs both terms.
	s2 := NewSchedule(g)
	s2.SetPush(up)
	s2.SetPull(up) // rc(1) = 11
	if got := s2.Cost(r); got != 13 {
		t.Fatalf("push+pull edge cost = %v, want 13", got)
	}
}

func TestFinalizeHybridRule(t *testing.T) {
	g := hubGraph()
	r := &workload.Rates{Prod: []float64{1, 100, 1}, Cons: []float64{1, 2, 3}}
	s := NewSchedule(g)
	s.Finalize(r)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge 0→1: rp(0)=1 <= rc(1)=2 → push. Edge 1→2: rp(1)=100 > rc(2)=3 → pull.
	e01, _ := g.EdgeID(0, 1)
	e12, _ := g.EdgeID(1, 2)
	if !s.IsPush(e01) || s.IsPull(e01) {
		t.Fatal("edge 0→1 should be push")
	}
	if !s.IsPull(e12) || s.IsPush(e12) {
		t.Fatal("edge 1→2 should be pull")
	}
}

func TestFinalizeDoesNotTouchScheduled(t *testing.T) {
	g := hubGraph()
	r := workload.NewUniform(3, 5)
	s := NewSchedule(g)
	cross, _ := g.EdgeID(0, 2)
	up, _ := g.EdgeID(0, 1)
	down, _ := g.EdgeID(1, 2)
	s.SetPush(up)
	s.SetPull(down)
	s.SetCovered(cross, 1)
	before := s.Cost(r)
	s.Finalize(r)
	if got := s.Cost(r); got != before {
		t.Fatalf("Finalize changed cost of complete schedule: %v → %v", before, got)
	}
	if s.IsPush(cross) || s.IsPull(cross) {
		t.Fatal("Finalize scheduled a covered edge directly")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := hubGraph()
	s := NewSchedule(g)
	up, _ := g.EdgeID(0, 1)
	s.SetPush(up)
	c := s.Clone()
	c.SetPull(up)
	c.SetCovered(up, 2)
	if s.IsPull(up) || s.IsCovered(up) {
		t.Fatal("Clone shares state")
	}
	if c.Hub(up) != 2 || s.Hub(up) != -1 {
		t.Fatal("hub array not cloned")
	}
}

func TestClearOperations(t *testing.T) {
	g := hubGraph()
	s := NewSchedule(g)
	e, _ := g.EdgeID(0, 1)
	s.SetPush(e)
	s.SetPull(e)
	s.SetCovered(e, 2)
	s.ClearPush(e)
	if s.IsPush(e) || !s.IsPull(e) || !s.IsCovered(e) {
		t.Fatal("ClearPush broke other flags")
	}
	s.ClearCovered(e)
	if s.IsCovered(e) || s.Hub(e) != -1 {
		t.Fatal("ClearCovered incomplete")
	}
	s.ClearPull(e)
	if s.IsScheduled(e) {
		t.Fatal("edge should be unscheduled")
	}
}

func TestPushPullSets(t *testing.T) {
	g := hubGraph()
	s := NewSchedule(g)
	up, _ := g.EdgeID(0, 1)
	down, _ := g.EdgeID(1, 2)
	cross, _ := g.EdgeID(0, 2)
	s.SetPush(up)
	s.SetPull(down)
	s.SetCovered(cross, 1)
	ps := s.AppendPushSet(nil, 0)
	if len(ps) != 1 || ps[0] != 1 {
		t.Fatalf("AppendPushSet(nil, 0) = %v, want [1]", ps)
	}
	ls := s.AppendPullSet(nil, 2)
	if len(ls) != 1 || ls[0] != 1 {
		t.Fatalf("AppendPullSet(nil, 2) = %v, want [1]", ls)
	}
	if len(s.AppendPushSet(nil, 2)) != 0 || len(s.AppendPullSet(nil, 0)) != 0 {
		t.Fatal("unexpected nonempty sets")
	}
}

// Property: Finalize always yields a valid schedule, and its cost equals
// the hybrid cost Σ min(rp(u), rc(v)) when starting from empty.
func TestQuickFinalizeValidAndHybridCost(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := graphgen.ErdosRenyi(n, 4*n, seed)
		r := workload.LogDegree(g, 1+rng.Float64()*10)
		s := NewSchedule(g)
		s.Finalize(r)
		if s.Validate() != nil {
			return false
		}
		want := 0.0
		g.Edges(func(_ graph.EdgeID, u, v graph.NodeID) bool {
			want += math.Min(r.Prod[u], r.Cons[v])
			return true
		})
		return math.Abs(s.Cost(r)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

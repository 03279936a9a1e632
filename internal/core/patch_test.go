package core

import (
	"reflect"
	"slices"
	"testing"

	"piggyback/internal/graph"
)

// patchFixture: 0→1 (push support), 1→2 (pull support), 0→2 covered
// through 1, plus an exterior tail 3→0.
func patchFixture(t *testing.T) (*graph.Graph, *Schedule) {
	t.Helper()
	g := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2}, {From: 3, To: 0},
	})
	s := NewSchedule(g)
	up, _ := g.EdgeID(0, 1)
	down, _ := g.EdgeID(1, 2)
	cov, _ := g.EdgeID(0, 2)
	tail, _ := g.EdgeID(3, 0)
	s.SetPush(up)
	s.SetPull(down)
	s.SetCovered(cov, 1)
	s.SetPush(tail)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, s
}

func TestApplyPatchSplicesAndRemapsHubs(t *testing.T) {
	g, s := patchFixture(t)
	// Region = {0, 1, 2}; re-solve flips the region to all-direct pushes.
	sub := graph.Induced(g, []graph.NodeID{0, 1, 2})
	patch := NewSchedule(sub.G)
	sub.G.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		patch.SetPush(e)
		return true
	})
	if err := patch.Validate(); err != nil {
		t.Fatal(err)
	}
	repairs, _, err := ApplyPatch(s, sub, patch)
	if err != nil {
		t.Fatal(err)
	}
	if repairs != 0 {
		t.Fatalf("repairs = %d, want 0 (no exterior coverage crossed)", repairs)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("spliced schedule invalid: %v", err)
	}
	cov, _ := g.EdgeID(0, 2)
	if s.IsCovered(cov) {
		t.Fatal("patch should have replaced coverage with a direct push")
	}
	tail, _ := g.EdgeID(3, 0)
	if !s.IsPush(tail) {
		t.Fatal("exterior edge lost its assignment")
	}
}

func TestApplyPatchKeepsCoverageAndRemapsHubNode(t *testing.T) {
	g, s := patchFixture(t)
	sub := graph.Induced(g, []graph.NodeID{0, 1, 2})
	// Patch reproduces the hub structure: push 0→1, pull 1→2, cover 0→2
	// through local node of 1.
	l1 := mustLocal(t, sub, 1)
	patch := NewSchedule(sub.G)
	pup, _ := sub.G.EdgeID(mustLocal(t, sub, 0), l1)
	pdown, _ := sub.G.EdgeID(l1, mustLocal(t, sub, 2))
	pcov, _ := sub.G.EdgeID(mustLocal(t, sub, 0), mustLocal(t, sub, 2))
	patch.SetPush(pup)
	patch.SetPull(pdown)
	patch.SetCovered(pcov, l1)
	if err := patch.Validate(); err != nil {
		t.Fatal(err)
	}
	_, sup, err := ApplyPatch(s, sub, patch)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cov, _ := g.EdgeID(0, 2)
	if !s.IsCovered(cov) || s.Hub(cov) != 1 {
		t.Fatalf("coverage not remapped: covered=%v hub=%d", s.IsCovered(cov), s.Hub(cov))
	}

	// The repair walk hands its support table to the sweeps that follow:
	// 0→2 rests on 0→1 and 1→2, one covered edge on each, as a fresh walk
	// of the spliced schedule finds.
	up, _ := g.EdgeID(0, 1)
	down, _ := g.EdgeID(1, 2)
	want := newSupports(g.NumEdges())
	want.Cover(cov, up, down)
	if !reflect.DeepEqual(sup, want) {
		t.Fatalf("ApplyPatch's table = %+v, want %+v", sup, want)
	}
	if walked := WalkSupports(s); !reflect.DeepEqual(sup, walked) {
		t.Fatalf("ApplyPatch's table = %+v, a fresh walk's %+v", sup, walked)
	}
}

// A subgraph carries its parent's edge ids, which name edges of that
// parent only: spliced into a schedule over any other graph — here one
// with the same edges, so the ids would even resolve — it must fail before
// writing anything.
func TestSpliceRejectsForeignSubgraph(t *testing.T) {
	g, s := patchFixture(t)
	twin := graph.FromEdges(g.NumNodes(), g.EdgeList())
	sub := graph.Induced(twin, []graph.NodeID{0, 1, 2})
	patch := NewSchedule(sub.G)
	sub.G.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		patch.SetPull(e)
		return true
	})
	want := s.Clone()
	if err := Splice(s, sub, patch); err == nil {
		t.Fatal("spliced a subgraph of another graph")
	}
	if _, _, err := ApplyPatch(s, sub, patch); err == nil {
		t.Fatal("ApplyPatch took a subgraph of another graph")
	}
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if s.flags[e] != want.flags[e] || s.hub[e] != want.hub[e] {
			t.Fatalf("edge %d: flags %v hub %d after a rejected splice, want %v hub %d",
				e, s.flags[e], s.hub[e], want.flags[e], want.hub[e])
		}
	}
}

// The boundary case the splice-validity argument hinges on: an exterior
// edge covered through a hub whose support lies INSIDE the region. The
// patch drops the support's flag; ApplyPatch's walk must restore it.
func TestApplyPatchRepairsBoundarySupports(t *testing.T) {
	// 0→1 (push), 1→2 (pull), 0→2 covered via 1. Region = {1, 2} contains
	// the pull support 1→2 but not the covered edge 0→2.
	g := graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
	})
	s := NewSchedule(g)
	up, _ := g.EdgeID(0, 1)
	down, _ := g.EdgeID(1, 2)
	cov, _ := g.EdgeID(0, 2)
	s.SetPush(up)
	s.SetPull(down)
	s.SetCovered(cov, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	sub := graph.Induced(g, []graph.NodeID{1, 2})
	patch := NewSchedule(sub.G)
	pe, _ := sub.G.EdgeID(mustLocal(t, sub, 1), mustLocal(t, sub, 2))
	patch.SetPush(pe) // region re-solve turns the pull into a push
	if err := patch.Validate(); err != nil {
		t.Fatal(err)
	}

	repairs, sup, err := ApplyPatch(s, sub, patch)
	if err != nil {
		t.Fatal(err)
	}
	if repairs == 0 {
		t.Fatal("expected a boundary repair")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("after repair: %v", err)
	}
	// The table resolved while repairing is the repaired schedule's.
	if walked := WalkSupports(s); !reflect.DeepEqual(sup, walked) {
		t.Fatalf("ApplyPatch's table = %+v, a fresh walk's %+v", sup, walked)
	}
	if !s.IsPull(down) {
		t.Fatal("support pull 1→2 not restored")
	}
	if !s.IsPush(down) {
		t.Fatal("patch push on 1→2 should survive the repair")
	}
}

// A covered edge whose support is not in the graph breaks ApplyPatch's
// precondition, and no valid splice produces one. The repair walk must
// then flag no edge, and the table must keep -1 for the missing support,
// so the schedule stays as invalid as it came.
func TestRepairWalkFlagsNothingForMissingSupport(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 2}, {From: 1, To: 2}})
	s := NewSchedule(g)
	cov, _ := g.EdgeID(0, 2)
	down, _ := g.EdgeID(1, 2)
	s.SetCovered(cov, 1) // up support 0→1 missing
	sup, repairs := walkSupports(s, true)
	if repairs != 0 || s.IsScheduled(down) {
		t.Fatalf("repairs = %d, 1→2 flags push=%v pull=%v; want no repair", repairs, s.IsPush(down), s.IsPull(down))
	}
	if sup.Up[cov] != -1 || sup.Down[cov] != down || sup.Pinned[down] != 1 {
		t.Fatalf("table up=%d down=%d pinned=%d, want -1, %d, 1", sup.Up[cov], sup.Down[cov], sup.Pinned[down], down)
	}
	if s.Validate() == nil {
		t.Fatal("a cover without its support validated")
	}
}

func mustLocal(t *testing.T, sub *graph.Subgraph, u graph.NodeID) graph.NodeID {
	t.Helper()
	l, ok := slices.BinarySearch(sub.Global, u)
	if !ok {
		t.Fatalf("node %d not in subgraph", u)
	}
	return graph.NodeID(l)
}

package incremental

import (
	"math/rand"
	"testing"
	"testing/quick"

	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/workload"
)

// LiveEdges returns the current edge list (base minus removals plus live
// additions) in no particular order: the input of the Rebase the merge
// replaced, and of nothing else.
func (m *Maintainer) LiveEdges() []graph.Edge {
	out := make([]graph.Edge, 0, m.NumEdges())
	m.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if !m.removed.Test(int(e)) {
			out = append(out, graph.Edge{From: u, To: v})
		}
		return true
	})
	for _, x := range m.extra {
		if !x.removed {
			out = append(out, x.edge)
		}
	}
	return out
}

// referenceRebase is the Rebase the merge replaced, kept as its oracle:
// sort the live edge list into a fresh graph, then look every live edge
// up in it to copy its flags.
func referenceRebase(m *Maintainer) (*graph.Graph, *core.Schedule) {
	ng := graph.FromEdges(m.g.NumNodes(), m.LiveEdges())
	ns := core.NewSchedule(ng)
	copyFlags := func(u, v graph.NodeID, f core.Flag, hub graph.NodeID) {
		ne, _ := ng.EdgeID(u, v)
		if f&core.FlagPush != 0 {
			ns.SetPush(ne)
		}
		if f&core.FlagPull != 0 {
			ns.SetPull(ne)
		}
		if f&core.FlagCovered != 0 {
			ns.SetCovered(ne, hub)
		}
	}
	m.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if m.removed.Test(int(e)) {
			return true
		}
		var f core.Flag
		if m.sched.IsPush(e) {
			f |= core.FlagPush
		}
		if m.sched.IsPull(e) {
			f |= core.FlagPull
		}
		if m.sched.IsCovered(e) {
			f |= core.FlagCovered
		}
		copyFlags(u, v, f, m.sched.Hub(e))
		return true
	})
	for _, x := range m.extra {
		if !x.removed {
			copyFlags(x.edge.From, x.edge.To, x.flags, x.hub)
		}
	}
	return ng, ns
}

// rebaseAgrees holds Rebase against the reference: same edge list, same
// flags and hub on every edge.
func rebaseAgrees(t *testing.T, m *Maintainer) {
	t.Helper()
	g, s := m.Rebase()
	rg, rs := referenceRebase(m)
	if g.NumNodes() != rg.NumNodes() || g.NumEdges() != rg.NumEdges() {
		t.Fatalf("rebased graph has %d nodes / %d edges, reference %d / %d",
			g.NumNodes(), g.NumEdges(), rg.NumNodes(), rg.NumEdges())
	}
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if g.EdgeAt(e) != rg.EdgeAt(e) {
			t.Fatalf("edge %d is %v, reference %v", e, g.EdgeAt(e), rg.EdgeAt(e))
		}
		if s.IsPush(e) != rs.IsPush(e) || s.IsPull(e) != rs.IsPull(e) ||
			s.IsCovered(e) != rs.IsCovered(e) || s.Hub(e) != rs.Hub(e) {
			t.Fatalf("edge %d %v: flags or hub differ from the reference", e, g.EdgeAt(e))
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("rebased schedule invalid: %v", err)
	}
}

// churn applies ops random operations to m: removals of live edges (base
// and added), additions of fresh edges, re-additions of removed ones
// (base edges revive in place, added ones in their slot) and rate
// updates.
func churn(rng *rand.Rand, m *Maintainer, ops int) {
	n := m.g.NumNodes()
	var gone []graph.Edge
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(8); {
		case k < 3:
			live := m.LiveEdges()
			e := live[rng.Intn(len(live))]
			if m.RemoveEdge(e.From, e.To) == nil {
				gone = append(gone, e)
			}
		case k < 5 && len(gone) > 0:
			e := gone[rng.Intn(len(gone))]
			_ = m.AddEdge(e.From, e.To) // may be live again already
		case k < 7:
			_ = m.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))) // may exist, may be a loop
		default:
			_ = m.UpdateRates(graph.NodeID(rng.Intn(n)), 0.1+rng.Float64()*9, 0.1+rng.Float64()*9)
		}
	}
}

func TestRebaseMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphgen.Social(graphgen.Config{
			Nodes: 10 + rng.Intn(80), AvgFollows: 4, TriadProb: 0.5, Reciprocity: 0.3, Seed: seed,
		})
		r := workload.LogDegree(g, 5)
		m := New(nosy.Solve(g, r, nosy.Config{}).Schedule, r)
		rebaseAgrees(t, m) // nothing removed, nothing added
		for round := 0; round < 4; round++ {
			churn(rng, m, 30)
			rebaseAgrees(t, m)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The corner the merge has to get right by construction: added edges
// before, between and after the base edges, a base edge removed and
// re-added (it revives in place and must not show up as an extra), an
// added edge removed and re-added, and an added edge that stays removed.
func TestRebaseMergeCorners(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{{From: 1, To: 2}, {From: 1, To: 4}, {From: 3, To: 2}, {From: 3, To: 4}})
	r := workload.NewUniform(6, 1)
	s := core.NewSchedule(g)
	s.Finalize(r)
	m := New(s, r)
	for _, step := range []struct {
		add  bool
		u, v graph.NodeID
	}{
		{true, 0, 5}, {true, 1, 3}, {true, 5, 0}, {true, 3, 5}, {true, 2, 1},
		{false, 1, 4}, {true, 1, 4}, // base edge: removed, revived in place
		{false, 1, 3}, {true, 1, 3}, // added edge: removed, revived in its slot
		{false, 2, 1}, // added edge that stays removed
		{false, 3, 2}, // base edge that stays removed
	} {
		var err error
		if step.add {
			err = m.AddEdge(step.u, step.v)
		} else {
			err = m.RemoveEdge(step.u, step.v)
		}
		if err != nil {
			t.Fatal(err)
		}
		rebaseAgrees(t, m)
	}
	if len(m.extra) != 5 {
		t.Fatalf("%d extra slots, want 5: a revived base edge must not become an extra", len(m.extra))
	}
}

// BenchmarkRebaseChurn prices one Rebase at the churn_local geometry: a
// PARALLELNOSY schedule over the 120k-edge streamed graph after the 1000
// churn ops of one round.
func BenchmarkRebaseChurn(b *testing.B) {
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(120_000, 7))
	r := workload.LogDegree(g, 5)
	m := New(nosy.Solve(g, r, nosy.Config{}).Schedule, r)
	for i, op := range workload.GenerateChurn(g, r, 1000, workload.ChurnConfig{Seed: 7}) {
		var err error
		switch op.Kind {
		case workload.OpAdd:
			err = m.AddEdge(op.U, op.V)
		case workload.OpRemove:
			err = m.RemoveEdge(op.U, op.V)
		default:
			err = m.UpdateRates(op.U, op.Prod, op.Cons)
		}
		if err != nil {
			b.Fatalf("op %d: %v", i, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Rebase()
	}
}

package incremental

import (
	"math/rand"
	"testing"
	"testing/quick"

	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/scenario"
	"piggyback/internal/workload"
)

// LiveEdges returns the current edge list (base minus removals plus live
// additions) in no particular order: the input of the Rebase the merge
// replaced, and of nothing else.
func (m *Maintainer) LiveEdges() []graph.Edge {
	out := make([]graph.Edge, 0, m.NumEdges())
	for d, f := range m.flags {
		if f != gone {
			u, v := m.endpoints(graph.EdgeID(d))
			out = append(out, graph.Edge{From: u, To: v})
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
	for d, f := range m.flags {
		if f != gone {
			u, v := m.endpoints(graph.EdgeID(d))
			copyFlags(u, v, f, m.hubs[d])
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
	if g.NumNodes() != rg.NumNodes() || g.NumEdges() != rg.NumEdges() || m.NumEdges() != rg.NumEdges() {
		t.Fatalf("rebased graph has %d nodes / %d edges, NumEdges %d, reference %d / %d",
			g.NumNodes(), g.NumEdges(), m.NumEdges(), rg.NumNodes(), rg.NumEdges())
	}
	edges, ref := g.EdgeList(), rg.EdgeList()
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if edges[e] != ref[e] {
			t.Fatalf("edge %d is %v, reference %v", e, edges[e], ref[e])
		}
		if s.IsPush(e) != rs.IsPush(e) || s.IsPull(e) != rs.IsPull(e) ||
			s.IsCovered(e) != rs.IsCovered(e) || s.Hub(e) != rs.Hub(e) {
			t.Fatalf("edge %d %v: flags or hub differ from the reference", e, edges[e])
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
		m := New(nosy.Solve(g, r, nosy.Config{}), r)
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
// re-added (it revives in place and must not show up as an added edge), an
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
	if len(m.added) != 5 {
		t.Fatalf("%d added edges, want 5: a revived base edge must not become an added one", len(m.added))
	}
}

// sameRebase fails t unless the two rebased pairs are one graph and one
// schedule: the same edges in the same order, the same flags and hubs.
func sameRebase(t *testing.T, round int, g, wantG *graph.Graph, s, wantS *core.Schedule) {
	t.Helper()
	if g.NumNodes() != wantG.NumNodes() || g.NumEdges() != wantG.NumEdges() {
		t.Fatalf("round %d: %d nodes / %d edges, a fresh freeze's %d / %d", round, g.NumNodes(), g.NumEdges(), wantG.NumNodes(), wantG.NumEdges())
	}
	edges, want := g.EdgeList(), wantG.EdgeList()
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if edges[e] != want[e] || s.IsPush(e) != wantS.IsPush(e) || s.IsPull(e) != wantS.IsPull(e) ||
			s.IsCovered(e) != wantS.IsCovered(e) || s.Hub(e) != wantS.Hub(e) {
			t.Fatalf("round %d: edge %d is %v, a fresh freeze's %v, or its flags or hub differ", round, e, edges[e], want[e])
		}
	}
}

// A Frozen frozen into again is a fresh freeze: its Rebase equals one taken
// at the same moment, after the maintainer has moved on, through added-edge
// adds, removals and rate ops between the freezes. Once its arrays have
// grown, freezing into it allocates nothing.
func TestFreezeReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graphgen.Social(graphgen.FlickrLike(200, 3))
	r := workload.LogDegree(g, 5)
	m := New(nosy.Solve(g, r, nosy.Config{Workers: 1}), r)
	var reused *Frozen
	for round := 0; round < 8; round++ {
		churn(rng, m, 40)
		reused = m.Freeze(reused)
		fresh := m.Freeze(nil)
		churn(rng, m, 10) // the frozen copies are detached from m
		g, s := reused.Rebase()
		wantG, wantS := fresh.Rebase()
		sameRebase(t, round, g, wantG, s, wantS)
	}
	removed := 0
	for _, f := range m.flags[:g.NumEdges()] {
		if f == gone {
			removed++
		}
	}
	if len(m.added) == 0 || removed == 0 {
		t.Fatalf("set-up: %d added edges, %d removed base edges; want both", len(m.added), removed)
	}
	if allocs := testing.AllocsPerRun(50, func() { m.Freeze(reused) }); allocs != 0 {
		t.Errorf("freezing into a Frozen of the same maintainer allocates %v times", allocs)
	}
}

// churnLocal is the churn_local set-up: a PARALLELNOSY schedule over the
// 120k-edge streamed graph, LogDegree rates, and one round's 1000 churn
// ops.
func churnLocal() (*core.Schedule, *workload.Rates, []workload.ChurnOp) {
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(120_000, 7))
	r := workload.LogDegree(g, 5)
	return nosy.Solve(g, r, nosy.Config{}), r, scenario.GenerateChurn(g, r, 1000, scenario.ChurnConfig{Seed: 7})
}

// replay applies ops to m in order.
func replay(tb testing.TB, m *Maintainer, ops []workload.ChurnOp) {
	for i, op := range ops {
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
			tb.Fatalf("op %d: %v", i, err)
		}
	}
}

// BenchmarkRebaseChurn prices one Rebase at the churn_local geometry,
// after the churn ops of one round.
func BenchmarkRebaseChurn(b *testing.B) {
	s, r, ops := churnLocal()
	m := New(s, r)
	replay(b, m, ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Rebase()
	}
}

// BenchmarkMaintainerOps prices the maintainer's share of the ingest path
// at the churn_local geometry: one iteration replays the round's 1000 ops
// on a fresh maintainer, built outside the timer.
func BenchmarkMaintainerOps(b *testing.B) {
	s, r, ops := churnLocal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := New(s, cloneRates(r))
		b.StartTimer()
		replay(b, m, ops)
	}
}

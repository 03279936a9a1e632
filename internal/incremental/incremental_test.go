package incremental

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/refine"
	"piggyback/internal/scenario"
	"piggyback/internal/workload"
)

func optimized(n int, seed int64) (*graph.Graph, *workload.Rates, *Maintainer) {
	g := graphgen.Social(graphgen.TwitterLike(n, seed))
	r := workload.LogDegree(g, 5)
	res := nosy.Solve(g, r, nosy.Config{})
	return g, r, New(res.Schedule, r)
}

func TestCostMatchesScheduleInitially(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(300, 1))
	r := workload.LogDegree(g, 5)
	res := nosy.Solve(g, r, nosy.Config{})
	m := New(res.Schedule, r)
	if math.Abs(m.Cost()-res.Schedule.Cost(r)) > 1e-9 {
		t.Fatalf("maintainer cost %v != schedule cost %v", m.Cost(), res.Schedule.Cost(r))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumEdges() != g.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", m.NumEdges(), g.NumEdges())
	}
}

func TestAddEdgeHybridCost(t *testing.T) {
	g, r, m := optimized(200, 2)
	before := m.Cost()
	// Find a missing edge.
	var u, v graph.NodeID
	found := false
	for a := 0; a < g.NumNodes() && !found; a++ {
		for b := 0; b < g.NumNodes() && !found; b++ {
			if a != b && !g.HasEdge(graph.NodeID(a), graph.NodeID(b)) {
				u, v = graph.NodeID(a), graph.NodeID(b)
				found = true
			}
		}
	}
	if !found {
		t.Skip("graph is complete")
	}
	if err := m.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
	// The edge is either covered for free through an existing hub or
	// served directly at the hybrid cost — never anything worse.
	want := before + math.Min(r.Prod[u], r.Cons[v])
	if _, _, _, covered := m.findHub(u, v); covered {
		want = before
	}
	if math.Abs(m.Cost()-want) > 1e-9 {
		t.Fatalf("cost after add = %v, want %v", m.Cost(), want)
	}
	if err := m.AddEdge(u, v); err == nil {
		t.Fatal("duplicate AddEdge should fail")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeRejectsBad(t *testing.T) {
	_, _, m := optimized(50, 3)
	if err := m.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := m.AddEdge(0, 10000); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := m.RemoveEdge(0, 10000); err == nil {
		t.Fatal("out-of-range remove accepted")
	}
	if err := m.RemoveEdge(-1, 0); err == nil {
		t.Fatal("negative-id remove accepted")
	}
}

func TestRemoveSupportEdgeRescuesCovered(t *testing.T) {
	// Figure-2 shape: 0→1 push, 1→2 pull, 0→2 covered through 1.
	g := graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
	})
	r := workload.NewUniform(3, 1)
	res := nosy.Solve(g, r, nosy.Config{})
	m := New(res.Schedule, r)

	// Removing the pull edge 1→2 must rescue the covered edge 0→2.
	if err := m.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("after removing hub pull: %v", err)
	}
	if m.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", m.NumEdges())
	}
	// 0→2 is now served directly: cost = push(0→1) + direct(0→2) = 2.
	if got := m.Cost(); got != 2 {
		t.Fatalf("cost = %v, want 2", got)
	}
}

func TestRemovePushSupportRescues(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
	})
	r := workload.NewUniform(3, 1)
	res := nosy.Solve(g, r, nosy.Config{})
	m := New(res.Schedule, r)
	if err := m.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("after removing hub push: %v", err)
	}
}

// A live edge with no flags is unserved, not removed: Validate names it,
// NumEdges and Rebase count it, and it can be removed. A removed support
// keeps none of its flags: an edge its hub would bracket is served
// directly, not covered through it.
func TestUnservedIsNotRemoved(t *testing.T) {
	// 0→2 pushed and 2→3 pulled make 2 a hub able to cover 0→3; 0→1 is
	// live with no flags.
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 2, To: 3}})
	r := workload.NewUniform(4, 1)
	s := core.NewSchedule(g)
	s.Finalize(r)
	unserved, _ := g.EdgeID(0, 1)
	pull, _ := g.EdgeID(2, 3)
	s.ClearEdge(unserved)
	s.ClearPush(pull)
	s.SetPull(pull)
	m := New(s, r)

	want := "incremental: live edge 0→1 unserved"
	if err := m.Validate(); err == nil || err.Error() != want {
		t.Fatalf("Validate = %v, want %q", err, want)
	}
	if rg, _ := m.Rebase(); m.NumEdges() != 3 || rg.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, rebased graph %d edges; want 3 and 3", m.NumEdges(), rg.NumEdges())
	}
	if err := m.RemoveEdge(0, 1); err != nil {
		t.Fatalf("removing the unserved edge: %v", err)
	}

	if err := m.RemoveEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	rg, rs := m.Rebase()
	e, _ := rg.EdgeID(0, 3)
	if covered, _ := coverIndex(m); rs.IsCovered(e) || !rs.IsPush(e) || covered != 0 {
		t.Fatalf("0→3 covered=%v push=%v (%d covered edges): want it pushed, not covered through the removed 0→2",
			rs.IsCovered(e), rs.IsPush(e), covered)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Cost(); got != 2 {
		t.Fatalf("cost = %v, want 2 (pull 2→3, push 0→3)", got)
	}
}

func TestRemoveThenReAdd(t *testing.T) {
	_, _, m := optimized(200, 5)
	g := graphgen.Social(graphgen.TwitterLike(200, 5))
	e := g.EdgeList()[0]
	if err := m.RemoveEdge(e.From, e.To); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveEdge(e.From, e.To); err == nil {
		t.Fatal("double remove should fail")
	}
	if err := m.AddEdge(e.From, e.To); err != nil {
		t.Fatalf("re-add after remove: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveEdgesRoundTrip(t *testing.T) {
	g, _, m := optimized(150, 7)
	e := g.EdgeList()[3]
	m.RemoveEdge(e.From, e.To)
	m.AddEdge(e.To, e.From) // may exist already; ignore error
	live := m.LiveEdges()
	if len(live) != m.NumEdges() {
		t.Fatalf("LiveEdges %d != NumEdges %d", len(live), m.NumEdges())
	}
	rebuilt := graph.FromEdges(g.NumNodes(), live)
	if rebuilt.NumEdges() > m.NumEdges() {
		t.Fatal("rebuild created edges")
	}
}

// The core §3.3 claim behind Figure 5: incremental maintenance after
// adding a batch of edges is worse than re-optimizing, but not by much,
// and both stay no worse than hybrid.
func TestIncrementalVsStatic(t *testing.T) {
	full := graphgen.Social(graphgen.TwitterLike(400, 11))
	r := workload.LogDegree(full, 5)
	edges := full.EdgeList()
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	half := edges[:len(edges)/2]
	rest := edges[len(edges)/2:]

	base := graph.FromEdges(full.NumNodes(), half)
	baseSched := nosy.Solve(base, r, nosy.Config{}).Schedule
	m := New(baseSched, r)
	for _, e := range rest {
		if err := m.AddEdge(e.From, e.To); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	incCost := m.Cost()
	staticCost := nosy.Solve(full, r, nosy.Config{}).Schedule.Cost(r)
	hybrid := baseline.HybridCost(full, r)
	if staticCost > incCost+1e-9 {
		t.Fatalf("static re-optimization (%v) worse than incremental (%v)", staticCost, incCost)
	}
	if incCost > hybrid+1e-9 {
		t.Fatalf("incremental (%v) worse than hybrid (%v)", incCost, hybrid)
	}
}

// coverIndex counts m's live covered edges (base and added) from their
// flags, and the entries of its support-dependency index.
func coverIndex(m *Maintainer) (covered, entries int) {
	for _, f := range m.flags {
		if f != gone && f&core.FlagCovered != 0 {
			covered++
		}
	}
	for _, list := range m.deps {
		entries += len(list)
	}
	return covered, entries
}

// TestChurnDepsStayBounded drives a long random add/remove sequence and
// checks that the support-edge dep index shrinks with the covered set:
// every rescued or removed covered edge must leave the dep lists of BOTH
// its supports, so the index never accumulates stale entries. The
// regression this guards: deps entries for edges re-served directly used
// to linger forever, growing the index monotonically under churn.
func TestChurnDepsStayBounded(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(200, 3))
	r := workload.LogDegree(g, 5)
	m := New(nosy.Solve(g, r, nosy.Config{}).Schedule, r)

	// Each dep entry must reference a live covered edge, and a covered
	// edge has at most two supports: the index is bounded by 2·covered.
	if covered, entries := coverIndex(m); entries > 2*covered {
		t.Fatalf("initial deps entries %d exceed 2·covered = %d", entries, 2*covered)
	}

	edges := g.EdgeList()
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < 1000; op++ {
		if rng.Intn(2) == 0 {
			e := edges[rng.Intn(len(edges))]
			_ = m.RemoveEdge(e.From, e.To) // may already be removed
		} else {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if u != v {
				_ = m.AddEdge(u, v) // may already exist
			}
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if covered, entries := coverIndex(m); entries > 2*covered {
			t.Fatalf("op %d: deps entries %d exceed 2·covered = %d", op, entries, 2*covered)
		}
	}
}

// Property: random removals and additions never break validity, and cost
// stays non-negative.
func TestQuickRandomChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		g := graphgen.Social(graphgen.Config{
			Nodes: n, AvgFollows: 4, TriadProb: 0.5, Reciprocity: 0.3, Seed: seed,
		})
		r := workload.LogDegree(g, 5)
		m := New(nosy.Solve(g, r, nosy.Config{}).Schedule, r)
		edges := g.EdgeList()
		for op := 0; op < 40; op++ {
			if rng.Intn(2) == 0 && len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				_ = m.RemoveEdge(e.From, e.To) // may already be removed
			} else {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				if u != v {
					_ = m.AddEdge(u, v) // may already exist
				}
			}
			if m.Validate() != nil || m.Cost() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The satellite regression for the AddEdge hub-membership check: an edge
// whose endpoints are already bracketed by a paid push u→w / pull w→v
// pair must be covered for free instead of paying the hybrid cost.
func TestAddEdgeCoversThroughExistingHub(t *testing.T) {
	// 0→1 push, 1→2 pull, 1→3 pull; 0→2 covered via hub 1. The edge 0→3
	// is absent but coverable through the same hub.
	g := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2}, {From: 1, To: 3},
	})
	r := workload.NewUniform(4, 1)
	s := core.NewSchedule(g)
	up, _ := g.EdgeID(0, 1)
	d2, _ := g.EdgeID(1, 2)
	d3, _ := g.EdgeID(1, 3)
	cov, _ := g.EdgeID(0, 2)
	s.SetPush(up)
	s.SetPull(d2)
	s.SetPull(d3)
	s.SetCovered(cov, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	m := New(s, r)
	before := m.Cost()

	if err := m.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if got := m.Cost(); got != before {
		t.Fatalf("coverable add changed cost: %v → %v", before, got)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if covered, _ := coverIndex(m); covered != 2 {
		t.Fatalf("%d covered edges, want 2", covered)
	}

	// Removing the pull support 1→3 must rescue the covered added edge.
	rescued := 0
	m.OnRescue = func(u, v graph.NodeID, cost float64) {
		if u == 0 && v == 3 {
			rescued++
		}
	}
	if err := m.RemoveEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if rescued != 1 {
		t.Fatalf("rescue hook fired %d times for 0→3, want 1", rescued)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Hub-dense regression: re-adding previously covered edges of an
// optimized Flickr-like schedule must come out cheaper than the direct
// hybrid patching the old maintainer did, because at least some re-adds
// find their hub still paid for.
func TestReAddOnHubDenseGraphBeatsDirectPatching(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(300, 17))
	r := workload.LogDegree(g, 5)
	m := New(nosy.Solve(g, r, nosy.Config{}).Schedule, r)

	var coveredEdges []graph.Edge
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if m.flags[e]&core.FlagCovered != 0 && len(coveredEdges) < 40 {
			coveredEdges = append(coveredEdges, graph.Edge{From: u, To: v})
		}
		return true
	})
	if len(coveredEdges) < 10 {
		t.Skipf("only %d covered edges; graph not hub-dense enough", len(coveredEdges))
	}
	for _, e := range coveredEdges {
		if err := m.RemoveEdge(e.From, e.To); err != nil {
			t.Fatal(err)
		}
	}
	afterRemove := m.Cost()
	directPatch := afterRemove
	for _, e := range coveredEdges {
		directPatch += math.Min(r.Prod[e.From], r.Cons[e.To])
		if err := m.AddEdge(e.From, e.To); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Cost() >= directPatch-1e-9 {
		t.Fatalf("hub-membership check saved nothing: cost %v vs direct patching %v",
			m.Cost(), directPatch)
	}
}

// costAgrees rebases the maintainer and checks the running cost against
// a fresh core.Schedule.Cost recomputation over the live graph.
func costAgrees(t *testing.T, m *Maintainer, r *workload.Rates) {
	t.Helper()
	ng, ns := m.Rebase()
	if err := ns.Validate(); err != nil {
		t.Fatalf("rebased schedule invalid: %v", err)
	}
	if ng.NumEdges() != m.NumEdges() {
		t.Fatalf("rebased graph has %d edges, maintainer reports %d",
			ng.NumEdges(), m.NumEdges())
	}
	fresh := ns.Cost(r)
	if diff := math.Abs(fresh - m.Cost()); diff > 1e-6*(1+math.Abs(fresh)) {
		t.Fatalf("running cost %v != fresh recomputation %v (diff %v)",
			m.Cost(), fresh, diff)
	}
}

func TestRunningCostMatchesRecompute(t *testing.T) {
	g, r, m := optimized(250, 19)
	costAgrees(t, m, r)
	edges := g.EdgeList()
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 300; op++ {
		switch rng.Intn(5) {
		case 0, 1:
			e := edges[rng.Intn(len(edges))]
			_ = m.RemoveEdge(e.From, e.To)
		case 2, 3:
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if u != v {
				_ = m.AddEdge(u, v)
			}
		case 4:
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			if err := m.UpdateRates(u, rng.Float64()*4, rng.Float64()*10); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	costAgrees(t, m, r)
}

// The satellite churn property test: a 1000-op random add/remove/
// re-solve sequence keeps Validate() passing and the running Cost()
// equal to a fresh core.Schedule.Cost recomputation of the rebased live
// graph. CI runs this package under -race.
func TestChurnPropertyAddRemoveResolve(t *testing.T) {
	nodes := 200
	if testing.Short() {
		nodes = 80
	}
	g := graphgen.Social(graphgen.FlickrLike(nodes, 23))
	r := workload.LogDegree(g, 5)
	m := New(nosy.Solve(g, r, nosy.Config{}).Schedule, r)
	live := g
	rng := rand.New(rand.NewSource(99))

	for op := 0; op < 1000; op++ {
		switch {
		case op%97 == 96: // periodic localized re-solve of a churned region
			ng, ns := m.Rebase()
			seed := graph.NodeID(rng.Intn(ng.NumNodes()))
			sub := graph.Induced(ng, graph.KHop(ng, []graph.NodeID{seed}, 2, 60))
			if _, err := core.ApplyPatch(ns, sub, chitchat.Solve(sub.G, r.Project(sub.Global), chitchat.Config{Workers: 1}), r); err != nil {
				t.Fatalf("op %d: splicing the region patch: %v", op, err)
			}
			if err := ns.Validate(); err != nil {
				t.Fatalf("op %d: region re-solve invalid: %v", op, err)
			}
			m = New(ns, r)
			live = ng
		case rng.Intn(2) == 0:
			el := live.EdgeList()
			e := el[rng.Intn(len(el))]
			_ = m.RemoveEdge(e.From, e.To)
		default:
			u := graph.NodeID(rng.Intn(live.NumNodes()))
			v := graph.NodeID(rng.Intn(live.NumNodes()))
			if u != v {
				_ = m.AddEdge(u, v)
			}
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	costAgrees(t, m, r)
}

func TestUpdateRatesRejectsBad(t *testing.T) {
	_, _, m := optimized(50, 3)
	if err := m.UpdateRates(-1, 1, 1); err == nil {
		t.Fatal("negative user accepted")
	}
	if err := m.UpdateRates(0, -1, 1); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := m.UpdateRates(0, math.NaN(), 1); err == nil {
		t.Fatal("NaN rate accepted")
	}
}

// sameDeps reports the first support whose dependency list differs between
// two maintainers, entry by entry and in order.
func sameDeps(t *testing.T, when string, got, want *Maintainer) {
	t.Helper()
	gotCovered, _ := coverIndex(got)
	wantCovered, _ := coverIndex(want)
	if len(got.deps) != len(want.deps) || gotCovered != wantCovered ||
		math.Float64bits(got.cost) != math.Float64bits(want.cost) {
		t.Fatalf("%s: %d lists, %d covered, cost %v; want %d, %d, %v", when,
			len(got.deps), gotCovered, got.cost, len(want.deps), wantCovered, want.cost)
	}
	for e := range want.deps {
		if !slices.Equal(got.deps[e], want.deps[e]) {
			t.Fatalf("%s: deps[%d] = %v, want %v", when, e, got.deps[e], want.deps[e])
		}
	}
}

// New from the support table a region splice and refine hand over builds
// the same dependency lists, in the same order, as New from a fresh walk —
// and so the two maintainers stay identical through a 1k-op churn replay,
// whose rescues and prunes read list order.
func TestNewFromHandedTableMatchesWalk(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(400, 7))
	r := workload.LogDegree(g, 5)
	ops := scenario.GenerateChurn(g, r, 1000, scenario.ChurnConfig{Seed: 7})
	base := chitchat.Solve(g, r, chitchat.Config{Workers: 1})
	for seed := graph.NodeID(0); seed < 4; seed++ {
		s := base.Clone()
		sub := graph.Induced(g, graph.KHop(g, []graph.NodeID{seed * 37}, 2, 120))
		if _, err := core.ApplyPatch(s, sub, chitchat.Solve(sub.G, r.Project(sub.Global), chitchat.Config{Workers: 1}), r); err != nil {
			t.Fatal(err)
		}
		_, sup := refine.Pass(s, r)
		s.KeepSupports(sup)
		rh, rw := cloneRates(r), cloneRates(r)
		handed := New(s, rh)
		walked := New(s, rw) // the table is taken: this one walks
		sameDeps(t, "built", handed, walked)
		for i, op := range ops {
			for _, m := range []*Maintainer{handed, walked} {
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
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		sameDeps(t, "after churn", handed, walked)
		if _, entries := coverIndex(handed); entries == 0 {
			t.Fatal("no dependency entries; the comparison proved nothing")
		}
	}
	// And New does read a handed-over table rather than walk: an empty one
	// leaves every list empty.
	s := base.Clone()
	empty := core.Supports{Pinned: make([]int32, g.NumEdges()), Up: make([]graph.EdgeID, g.NumEdges()), Down: make([]graph.EdgeID, g.NumEdges())}
	for e := range empty.Up {
		empty.Up[e], empty.Down[e] = -1, -1
	}
	s.KeepSupports(empty)
	if covered, entries := coverIndex(New(s, cloneRates(r))); entries != 0 || covered == 0 {
		t.Fatalf("New over an empty handed table: %d entries for %d covered edges", entries, covered)
	}
}

func cloneRates(r *workload.Rates) *workload.Rates {
	return &workload.Rates{Prod: slices.Clone(r.Prod), Cons: slices.Clone(r.Cons)}
}

package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"piggyback/internal/baseline"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/stats"
	"piggyback/internal/workload"
)

// cutEdges counts the edges of g whose endpoints live on different
// servers — the cross-shard traffic a placement induces.
func cutEdges(a Assignment, g *graph.Graph) int {
	cut := 0
	g.Edges(func(_ graph.EdgeID, u, v graph.NodeID) bool {
		if a.Of(u) != a.Of(v) {
			cut++
		}
		return true
	})
	return cut
}

func setup(n int, seed int64) (*graph.Graph, *workload.Rates) {
	g := graphgen.Social(graphgen.TwitterLike(n, seed))
	return g, workload.LogDegree(g, 5)
}

func TestHashAssignmentInRange(t *testing.T) {
	a := Hash(1000, 7, 1)
	if a.Servers != 7 {
		t.Fatalf("Servers = %d", a.Servers)
	}
	counts := make([]int, 7)
	for u := 0; u < 1000; u++ {
		s := a.Of(graph.NodeID(u))
		if s < 0 || s >= 7 {
			t.Fatalf("server %d out of range", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("server %d got no views", s)
		}
	}
}

func TestHashDeterministicPerSeed(t *testing.T) {
	a := Hash(100, 5, 42)
	b := Hash(100, 5, 42)
	c := Hash(100, 5, 43)
	diff := 0
	for u := 0; u < 100; u++ {
		if a.Of(graph.NodeID(u)) != b.Of(graph.NodeID(u)) {
			t.Fatal("same seed produced different assignments")
		}
		if a.Of(graph.NodeID(u)) != c.Of(graph.NodeID(u)) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical assignments")
	}
}

func TestSingleServerCost(t *testing.T) {
	g, r := setup(200, 1)
	s := baseline.Hybrid(g, r)
	a := Hash(g.NumNodes(), 1, 0)
	// With one server, every request is exactly one message.
	want := 0.0
	for u := range r.Prod {
		want += r.Prod[u] + r.Cons[u]
	}
	if got := Cost(s, r, a); math.Abs(got-want) > 1e-6 {
		t.Fatalf("1-server cost = %v, want %v", got, want)
	}
	if nt := NormalizedThroughput(s, r, a); math.Abs(nt-1) > 1e-9 {
		t.Fatalf("1-server normalized throughput = %v, want 1", nt)
	}
}

func TestCostGrowsWithServers(t *testing.T) {
	g, r := setup(300, 2)
	s := baseline.Hybrid(g, r)
	prev := 0.0
	for i, servers := range []int{1, 4, 16, 64, 256} {
		c := Cost(s, r, Hash(g.NumNodes(), servers, 0))
		if i > 0 && c < prev-1e-6 {
			t.Fatalf("cost decreased from %v to %v at %d servers", prev, c, servers)
		}
		prev = c
	}
}

func TestManyServersApproachPlacementFreeCost(t *testing.T) {
	// As servers → ∞ the probability of two views colliding on a server
	// vanishes, so the placement-aware cost approaches
	// Σ rp(1+|push|) + rc(1+|pull|) — the message count without batching.
	g, r := setup(200, 3)
	s := baseline.Hybrid(g, r)
	want := 0.0
	for u := 0; u < g.NumNodes(); u++ {
		uid := graph.NodeID(u)
		want += r.Prod[u] * float64(1+len(s.AppendPushSet(nil, uid)))
		want += r.Cons[u] * float64(1+len(s.AppendPullSet(nil, uid)))
	}
	got := Cost(s, r, Hash(g.NumNodes(), 1<<20, 0))
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("cost at 2^20 servers = %v, placement-free = %v", got, want)
	}
}

func TestParallelNosyWinsAtScale(t *testing.T) {
	// Figure 7's crossover: hybrid may win with few servers, but with many
	// servers the PARALLELNOSY schedule (fewer messages) must win.
	g, r := setup(500, 4)
	ff := baseline.Hybrid(g, r)
	pn := nosy.Solve(g, r, nosy.Config{}).Schedule
	big := Hash(g.NumNodes(), 4096, 0)
	if Cost(pn, r, big) >= Cost(ff, r, big) {
		t.Fatalf("PARALLELNOSY (%v) should beat FF (%v) at 4096 servers",
			Cost(pn, r, big), Cost(ff, r, big))
	}
}

func TestQueryLoadConservation(t *testing.T) {
	g, r := setup(300, 5)
	s := baseline.Hybrid(g, r)
	for _, servers := range []int{1, 8, 64} {
		a := Hash(g.NumNodes(), servers, 0)
		load := QueryLoad(s, r, a)
		if len(load) != servers {
			t.Fatalf("load has %d entries, want %d", len(load), servers)
		}
		sum := 0.0
		for _, l := range load {
			sum += l
		}
		// Every user's queries hit at least one server (its own view), so
		// the total is at least Σ rc.
		var sumC float64
		for _, c := range r.Cons {
			sumC += c
		}
		if sum < sumC-1e-6 {
			t.Fatalf("total query load %v below Σ rc %v", sum, sumC)
		}
	}
}

func TestLoadBalanceShape(t *testing.T) {
	// Figure 8: average per-server query load decreases as the system
	// grows, for both schedules. Hub schedules concentrate pulls on hub
	// views, so PARALLELNOSY's variance is higher at toy scale (the
	// paper's error bars show the same effect magnified on the right of
	// the log plot); the mean trend is the invariant worth locking in.
	g, r := setup(2000, 6)
	pn := nosy.Solve(g, r, nosy.Config{}).Schedule
	ff := baseline.Hybrid(g, r)
	prevPN, prevFF := math.Inf(1), math.Inf(1)
	for _, servers := range []int{4, 16, 64, 256} {
		a := Hash(g.NumNodes(), servers, 0)
		meanPN := stats.Mean(QueryLoad(pn, r, a))
		meanFF := stats.Mean(QueryLoad(ff, r, a))
		if meanPN > prevPN+1e-6 || meanFF > prevFF+1e-6 {
			t.Fatalf("mean per-server load increased at %d servers (PN %v→%v, FF %v→%v)",
				servers, prevPN, meanPN, prevFF, meanFF)
		}
		prevPN, prevFF = meanPN, meanFF
	}
}

// Property: placement cost is sandwiched between the message-free lower
// bound (1 message per request) and the placement-free upper bound.
func TestQuickCostBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		g := graphgen.ErdosRenyi(n, 4*n, seed)
		r := workload.LogDegree(g, 0.5+rng.Float64()*10)
		s := baseline.Hybrid(g, r)
		a := Hash(n, 1+rng.Intn(64), seed)
		got := Cost(s, r, a)
		lower, upper := 0.0, 0.0
		for u := 0; u < n; u++ {
			uid := graph.NodeID(u)
			lower += r.Prod[u] + r.Cons[u]
			upper += r.Prod[u] * float64(1+len(s.AppendPushSet(nil, uid)))
			upper += r.Cons[u] * float64(1+len(s.AppendPullSet(nil, uid)))
		}
		return got >= lower-1e-6 && got <= upper+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalityDeterministicAndComplete(t *testing.T) {
	g, _ := setup(2000, 3)
	a := Locality(g, 8, 11)
	b := Locality(g, 8, 11)
	if a.Servers != 8 {
		t.Fatalf("Servers = %d", a.Servers)
	}
	counts := make([]int, 8)
	for u := 0; u < g.NumNodes(); u++ {
		s := a.Of(graph.NodeID(u))
		if s < 0 || s >= 8 {
			t.Fatalf("node %d on server %d, out of range", u, s)
		}
		if s != b.Of(graph.NodeID(u)) {
			t.Fatal("same inputs produced different locality assignments")
		}
		counts[s]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("server %d got no views", s)
		}
	}
	// Balance cap: label propagation must not pile everything onto one
	// server. Allow the BFS+cap slack plus a margin.
	max := (g.NumNodes()/8)*2 + 1
	for s, c := range counts {
		if c > max {
			t.Fatalf("server %d holds %d views, cap-ish %d", s, c, max)
		}
	}
}

func TestLocalityBeatsHashOnCut(t *testing.T) {
	// Flickr-like graphs are clustered (triadic closure + reciprocity),
	// so a locality-aware placement must cut far fewer edges than random
	// hashing.
	g := graphgen.Social(graphgen.FlickrLike(3000, 9))
	loc := Locality(g, 8, 1)
	hash := Hash(g.NumNodes(), 8, 1)
	lc, hc := cutEdges(loc, g), cutEdges(hash, g)
	if lc >= hc {
		t.Fatalf("locality cut %d >= hash cut %d", lc, hc)
	}
	t.Logf("cut edges: locality %d vs hash %d (m=%d)", lc, hc, g.NumEdges())
}

func TestLocalitySingleServer(t *testing.T) {
	g, _ := setup(300, 1)
	a := Locality(g, 1, 5)
	for u := 0; u < g.NumNodes(); u++ {
		if a.Of(graph.NodeID(u)) != 0 {
			t.Fatalf("node %d not on server 0", u)
		}
	}
	if cutEdges(a, g) != 0 {
		t.Fatal("single server cannot cut edges")
	}
}

func TestGroupsPartitionAscending(t *testing.T) {
	g, _ := setup(500, 2)
	a := Locality(g, 4, 2)
	groups := a.Groups()
	total := 0
	for s, nodes := range groups {
		total += len(nodes)
		for i, v := range nodes {
			if a.Of(v) != int32(s) {
				t.Fatalf("node %d listed under server %d but assigned to %d", v, s, a.Of(v))
			}
			if i > 0 && nodes[i-1] >= v {
				t.Fatalf("server %d group not strictly ascending at %d", s, i)
			}
		}
	}
	if total != g.NumNodes() {
		t.Fatalf("groups hold %d nodes, graph has %d", total, g.NumNodes())
	}
}

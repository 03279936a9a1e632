package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// diamond: 0→1, 0→2, 1→3, 2→3, 0→3
func diamond() *Graph {
	return FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {0, 3}})
}

func TestBuildBasics(t *testing.T) {
	g := diamond()
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.OutDegree(0) != 3 || g.InDegree(3) != 3 {
		t.Fatalf("degrees: out(0)=%d in(3)=%d", g.OutDegree(0), g.InDegree(3))
	}
}

func TestDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(1, 1) // self loop, dropped
	b.AddEdge(2, 0)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dedup + self-loop drop)", g.NumEdges())
	}
}

// Build sorts only what is out of order: input already in edge-id order,
// reversed, and carrying duplicates must all freeze into the same graph.
func TestBuildSortedReversedAndDuplicated(t *testing.T) {
	sorted := []Edge{{0, 1}, {0, 3}, {1, 0}, {1, 2}, {2, 3}, {3, 0}, {3, 2}}
	want := FromEdges(4, sorted).EdgeList()
	if !slices.Equal(want, sorted) {
		t.Fatalf("sorted input came out as %v", want)
	}
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	dup := append(slices.Clone(sorted), sorted...)
	sortedDup := []Edge{{0, 1}, {0, 1}, {0, 3}, {1, 0}, {1, 2}, {1, 2}, {2, 3}, {3, 0}, {3, 2}, {3, 2}}
	for name, in := range map[string][]Edge{"reversed": reversed, "duplicated": dup, "sorted with duplicates": sortedDup} {
		g := FromEdges(4, in)
		if got := g.EdgeList(); !slices.Equal(got, want) {
			t.Errorf("%s input: edges %v, want %v", name, got, want)
		}
		for e, x := range want {
			if id, ok := g.EdgeID(x.From, x.To); !ok || int(id) != e {
				t.Errorf("%s input: EdgeID%v = %d, %v, want %d", name, x, id, ok, e)
			}
		}
	}
}

// referenceCSR is Build's model: sort the edge list, drop self-loops and
// duplicates, then lay out each array the slow way — every in-list by a
// scan of the whole edge list in id order.
func referenceCSR(n int, in []Edge) *Graph {
	edges := slices.Clone(in)
	slices.SortFunc(edges, Edge.Compare)
	edges = slices.Compact(edges)
	edges = slices.DeleteFunc(edges, func(e Edge) bool { return e.From == e.To })
	g := &Graph{n: n, outStart: make([]int32, n+1), inStart: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		for _, e := range edges {
			if int(e.From) == u {
				g.outAdj = append(g.outAdj, e.To)
			}
		}
		g.outStart[u+1] = int32(len(g.outAdj))
	}
	for v := 0; v < n; v++ {
		for id, e := range edges {
			if int(e.To) == v {
				g.inAdj = append(g.inAdj, e.From)
				g.inEdge = append(g.inEdge, EdgeID(id))
			}
		}
		g.inStart[v+1] = int32(len(g.inAdj))
	}
	return g
}

// Build lays out all six CSR arrays exactly as the reference does, over
// random edge lists with duplicates, self-loops and empty rows, fed
// shuffled, sorted and reversed.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		sources := 1 + rng.Intn(n) // nodes ≥ sources have empty out-rows
		var edges []Edge
		for i := rng.Intn(6 * n); i > 0; i-- {
			e := Edge{NodeID(rng.Intn(sources)), NodeID(rng.Intn(n))}
			edges = append(edges, e)
			if rng.Intn(4) == 0 {
				edges = append(edges, e)
			}
		}
		want := referenceCSR(n, edges)
		sorted := slices.Clone(edges)
		slices.SortFunc(sorted, Edge.Compare)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		for _, order := range []struct {
			name  string
			edges []Edge
		}{{"shuffled", edges}, {"sorted", sorted}, {"reversed", reversed}} {
			g := FromEdges(n, order.edges)
			if g.n != want.n || !slices.Equal(g.outStart, want.outStart) || !slices.Equal(g.outAdj, want.outAdj) ||
				!slices.Equal(g.inStart, want.inStart) || !slices.Equal(g.inAdj, want.inAdj) || !slices.Equal(g.inEdge, want.inEdge) {
				t.Fatalf("trial %d, %s input %v:\ngot  %+v\nwant %+v", trial, order.name, order.edges, *g, *want)
			}
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestNeighborsSorted(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 4}, {0, 1}, {0, 3}, {2, 3}, {1, 3}})
	out := g.OutNeighbors(0)
	want := []NodeID{1, 3, 4}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("OutNeighbors(0) = %v, want %v", out, want)
		}
	}
	in := g.InNeighbors(3)
	wantIn := []NodeID{0, 1, 2}
	for i := range wantIn {
		if in[i] != wantIn[i] {
			t.Fatalf("InNeighbors(3) = %v, want %v", in, wantIn)
		}
	}
}

func TestEdgeIDRoundTrip(t *testing.T) {
	g := diamond()
	g.Edges(func(id EdgeID, u, v NodeID) bool {
		got, ok := g.EdgeID(u, v)
		if !ok || got != id {
			t.Fatalf("EdgeID(%d,%d) = (%d,%v), want (%d,true)", u, v, got, ok, id)
		}
		if g.EdgeSource(id) != u || g.EdgeTarget(id) != v {
			t.Fatalf("EdgeSource/Target(%d) = (%d,%d), want (%d,%d)",
				id, g.EdgeSource(id), g.EdgeTarget(id), u, v)
		}
		return true
	})
	if _, ok := g.EdgeID(3, 0); ok {
		t.Fatal("EdgeID found nonexistent edge")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("HasEdge(1,0) should be false")
	}
}

func TestInEdgeIDsParallel(t *testing.T) {
	g := diamond()
	in := g.InNeighbors(3)
	ids := g.InEdgeIDs(3)
	if len(in) != len(ids) {
		t.Fatalf("in/ids length mismatch: %d vs %d", len(in), len(ids))
	}
	for i := range in {
		if g.EdgeSource(ids[i]) != in[i] || g.EdgeTarget(ids[i]) != 3 {
			t.Fatalf("InEdgeIDs[%d]=%d does not match neighbor %d", i, ids[i], in[i])
		}
	}
}

func TestOutEdgeRange(t *testing.T) {
	g := diamond()
	lo, hi := g.OutEdgeRange(0)
	if int(hi-lo) != g.OutDegree(0) {
		t.Fatalf("OutEdgeRange span %d != OutDegree %d", hi-lo, g.OutDegree(0))
	}
	nbrs := g.OutNeighbors(0)
	for e := lo; e < hi; e++ {
		if g.EdgeTarget(e) != nbrs[e-lo] {
			t.Fatalf("edge %d target mismatch", e)
		}
	}
}

func TestEdgeListOrder(t *testing.T) {
	g := diamond()
	list := g.EdgeList()
	if len(list) != g.NumEdges() {
		t.Fatalf("EdgeList len = %d", len(list))
	}
	for i := 1; i < len(list); i++ {
		a, b := list[i-1], list[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("EdgeList not strictly sorted at %d: %v %v", i, a, b)
		}
	}
}

func TestReciprocity(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 0}, {0, 2}, {2, 1}})
	// reciprocal: 0→1 and 1→0 (2 of 4 edges)
	if got := g.Reciprocity(); got != 0.5 {
		t.Fatalf("Reciprocity = %v, want 0.5", got)
	}
	if FromEdges(2, nil).Reciprocity() != 0 {
		t.Fatal("empty graph reciprocity should be 0")
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle 0→1, 1→2, 0→2: every node's (undirected) neighborhood is
	// fully connected, so clustering = 1.
	tri := FromEdges(3, []Edge{{0, 1}, {1, 2}, {0, 2}})
	rng := rand.New(rand.NewSource(1))
	if got := tri.ClusteringCoefficient(0, rng); got != 1 {
		t.Fatalf("triangle clustering = %v, want 1", got)
	}
	// Star 0→1,0→2,0→3: leaves have one neighbor, center has no
	// links between neighbors → clustering 0.
	star := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if got := star.ClusteringCoefficient(0, rng); got != 0 {
		t.Fatalf("star clustering = %v, want 0", got)
	}
}

func TestCommonInNeighbors(t *testing.T) {
	// 0→2, 1→2, 3→2 ; 0→4, 3→4 → common in-neighbors of 2 and 4 = {0,3}
	g := FromEdges(5, []Edge{{0, 2}, {1, 2}, {3, 2}, {0, 4}, {3, 4}})
	got := g.CommonInNeighbors(2, 4, 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("CommonInNeighbors = %v, want [0 3]", got)
	}
	if lim := g.CommonInNeighbors(2, 4, 1); len(lim) != 1 {
		t.Fatalf("limit not honored: %v", lim)
	}
	if none := g.CommonInNeighbors(1, 3, 0); len(none) != 0 {
		t.Fatalf("expected empty intersection, got %v", none)
	}
}

func TestComputeStats(t *testing.T) {
	g := diamond()
	s := g.ComputeStats(0, rand.New(rand.NewSource(7)))
	if s.Nodes != 4 || s.Edges != 5 {
		t.Fatalf("stats nodes/edges = %d/%d", s.Nodes, s.Edges)
	}
	if s.MaxOutDegree != 3 || s.MaxInDegree != 3 {
		t.Fatalf("stats max degrees = %d/%d", s.MaxOutDegree, s.MaxInDegree)
	}
	if s.AvgOutDegree != 1.25 {
		t.Fatalf("AvgOutDegree = %v", s.AvgOutDegree)
	}
}

// Property: for random graphs, CSR invariants hold — every edge id round
// trips, in- and out-adjacency are consistent, and degrees sum to edge
// count.
func TestQuickCSRInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		b := NewBuilder(n)
		m := rng.Intn(4 * n)
		for i := 0; i < m; i++ {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		sumOut, sumIn := 0, 0
		for u := 0; u < n; u++ {
			sumOut += g.OutDegree(NodeID(u))
			sumIn += g.InDegree(NodeID(u))
		}
		if sumOut != g.NumEdges() || sumIn != g.NumEdges() {
			return false
		}
		ok := true
		g.Edges(func(id EdgeID, u, v NodeID) bool {
			if u == v {
				ok = false
				return false
			}
			if got, found := g.EdgeID(u, v); !found || got != id {
				ok = false
				return false
			}
			if g.EdgeSource(id) != u || g.EdgeTarget(id) != v {
				ok = false
				return false
			}
			// v's in-list must contain u with the same edge id.
			found := false
			in := g.InNeighbors(v)
			ids := g.InEdgeIDs(v)
			for i := range in {
				if in[i] == u && ids[i] == id {
					found = true
					break
				}
			}
			if !found {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// RowStamp answers exactly what EdgeID does for the stamped source, over
// random graphs and stamp orders, with one stamp reused across graphs of
// different sizes (stale entries of an earlier row or graph must read as
// absent, never as another edge).
func TestRowStampMatchesEdgeID(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var st RowStamp
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		b := NewBuilder(n)
		for i := rng.Intn(5 * n); i > 0; i-- {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		st.Reset(g)
		if _, ok := st.Edge(NodeID(rng.Intn(n))); ok {
			t.Fatalf("trial %d: an edge found with no row stamped", trial)
		}
		for i := 0; i < 2*n; i++ {
			u := NodeID(rng.Intn(n))
			st.Stamp(u)
			for w := NodeID(0); int(w) < n; w++ {
				got, gotOK := st.Edge(w)
				want, wantOK := g.EdgeID(u, w)
				if gotOK != wantOK || gotOK && got != want {
					t.Fatalf("trial %d: Edge(%d) after Stamp(%d) = %d,%v, EdgeID = %d,%v", trial, w, u, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func subTestGraph() *Graph {
	// 0→1, 0→2, 1→2, 2→3, 3→0, 1→4, 4→2
	return FromEdges(5, []Edge{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0}, {1, 4}, {4, 2},
	})
}

func TestInducedRemapsIDs(t *testing.T) {
	g := subTestGraph()
	sub := Induced(g, []NodeID{2, 0, 1, 0}) // dup + unsorted on purpose
	if !reflect.DeepEqual(sub.Global, []NodeID{0, 1, 2}) {
		t.Fatalf("Global = %v", sub.Global)
	}
	// Induced edges among {0,1,2}: 0→1, 0→2, 1→2.
	if got := sub.G.NumEdges(); got != 3 {
		t.Fatalf("NumEdges = %d, want 3", got)
	}
	for _, e := range sub.G.EdgeList() {
		gu, gv := sub.Global[e.From], sub.Global[e.To]
		if !g.HasEdge(gu, gv) {
			t.Fatalf("subgraph edge %v maps to missing parent edge %d→%d", e, gu, gv)
		}
	}
}

func TestInducedEdgeIDs(t *testing.T) {
	g := subTestGraph()
	ids := Induced(g, []NodeID{0, 1, 2}).GlobalEdge
	want := []EdgeID{}
	g.Edges(func(e EdgeID, u, v NodeID) bool {
		if u <= 2 && v <= 2 {
			want = append(want, e)
		}
		return true
	})
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("Induced(0, 1, 2).GlobalEdge = %v, want %v", ids, want)
	}
}

func TestKHopUndirected(t *testing.T) {
	g := subTestGraph()
	// 1 hop of {3}: out 3→0, in 2→3 → {0, 2, 3}.
	got := KHop(g, []NodeID{3}, 1, 0)
	if !reflect.DeepEqual(got, []NodeID{0, 2, 3}) {
		t.Fatalf("KHop(3,1) = %v", got)
	}
	// 2 hops reach everything in this graph.
	got = KHop(g, []NodeID{3}, 2, 0)
	if !reflect.DeepEqual(got, []NodeID{0, 1, 2, 3, 4}) {
		t.Fatalf("KHop(3,2) = %v", got)
	}
	// 0 hops: seeds only.
	got = KHop(g, []NodeID{4, 1, 4}, 0, 0)
	if !reflect.DeepEqual(got, []NodeID{1, 4}) {
		t.Fatalf("KHop(seeds,0) = %v", got)
	}
}

func TestKHopCapDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBuilder(60)
	for i := 0; i < 300; i++ {
		u := NodeID(rng.Intn(60))
		v := NodeID(rng.Intn(60))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	a := KHop(g, []NodeID{5}, 3, 20)
	c := KHop(g, []NodeID{5}, 3, 20)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("capped KHop not deterministic: %v vs %v", a, c)
	}
	if len(a) > 20 {
		t.Fatalf("cap violated: %d nodes", len(a))
	}
	uncapped := KHop(g, []NodeID{5}, 3, 0)
	if len(uncapped) < len(a) {
		t.Fatal("uncapped smaller than capped")
	}
}

// The references below are the kernels as they stood before the bitmap
// rewrite: hashed membership, sort-then-dedup. They share nothing with
// subgraph.go.

func refDedupSorted(nodes []NodeID) []NodeID {
	nodes = append([]NodeID(nil), nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	dst := 0
	for i, v := range nodes {
		if i > 0 && v == nodes[i-1] {
			continue
		}
		nodes[dst] = v
		dst++
	}
	return nodes[:dst]
}

func refInduced(g *Graph, nodes []NodeID) (*Graph, []NodeID) {
	global := refDedupSorted(nodes)
	local := make(map[NodeID]NodeID, len(global))
	for i, v := range global {
		local[v] = NodeID(i)
	}
	b := NewBuilder(len(global))
	for lu, u := range global {
		for _, v := range g.OutNeighbors(u) {
			if lv, ok := local[v]; ok {
				b.AddEdge(NodeID(lu), lv)
			}
		}
	}
	return b.Build(), global
}

func refInducedEdgeIDs(g *Graph, nodes []NodeID) []EdgeID {
	uniq := refDedupSorted(nodes)
	set := make(map[NodeID]struct{}, len(uniq))
	for _, v := range uniq {
		set[v] = struct{}{}
	}
	var out []EdgeID
	for _, u := range uniq {
		lo, hi := g.OutEdgeRange(u)
		targets := g.OutNeighbors(u)
		for e := lo; e < hi; e++ {
			if _, ok := set[targets[e-lo]]; ok {
				out = append(out, e)
			}
		}
	}
	return out
}

func refKHop(g *Graph, seeds []NodeID, k, maxNodes int) []NodeID {
	frontier := refDedupSorted(seeds)
	if maxNodes > 0 && len(frontier) > maxNodes {
		frontier = frontier[:maxNodes]
	}
	seen := make(map[NodeID]struct{}, len(frontier))
	out := make([]NodeID, 0, len(frontier))
	for _, v := range frontier {
		seen[v] = struct{}{}
		out = append(out, v)
	}
	for hop := 0; hop < k; hop++ {
		var next []NodeID
		for _, u := range frontier {
			for _, v := range g.OutNeighbors(u) {
				if _, ok := seen[v]; !ok {
					seen[v] = struct{}{}
					next = append(next, v)
				}
			}
			for _, v := range g.InNeighbors(u) {
				if _, ok := seen[v]; !ok {
					seen[v] = struct{}{}
					next = append(next, v)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		full := false
		if maxNodes > 0 && len(out)+len(next) >= maxNodes {
			next = next[:maxNodes-len(out)]
			full = true
		}
		out = append(out, next...)
		if full || len(next) == 0 {
			break
		}
		frontier = next
	}
	return refDedupSorted(out)
}

// sameGraph compares every CSR array, so edge ids and in-adjacency
// order count, not just the edge set.
func sameGraph(a, b *Graph) bool {
	return a.n == b.n &&
		slices.Equal(a.outStart, b.outStart) && slices.Equal(a.outAdj, b.outAdj) &&
		slices.Equal(a.inStart, b.inStart) && slices.Equal(a.inAdj, b.inAdj) &&
		slices.Equal(a.inEdge, b.inEdge)
}

func TestKernelsMatchMapReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(90)
		b := NewBuilder(n)
		for i := rng.Intn(6 * n); i > 0; i-- {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		// Node lists with duplicates, from empty to several times n.
		nodes := make([]NodeID, rng.Intn(3*n))
		for i := range nodes {
			nodes[i] = NodeID(rng.Intn(n))
		}
		if trial%10 == 0 {
			nodes = nil
		}

		sub := Induced(g, nodes)
		wantG, wantGlobal := refInduced(g, nodes)
		if !slices.Equal(sub.Global, wantGlobal) || !sameGraph(sub.G, wantG) {
			t.Fatalf("trial %d: Induced(%v) differs from the reference", trial, nodes)
		}

		// Seeds beyond the cap, caps that cut a layer in the middle, caps
		// above n, no cap, and k = 0 all come up in this range.
		seeds := nodes[:min(len(nodes), rng.Intn(5))]
		k, maxNodes := rng.Intn(4), rng.Intn(n+3)
		// So are the caps 1 and n, and one past the seeds, which the first
		// layer exceeds wherever the seeds have two new neighbours.
		for _, maxNodes := range []int{maxNodes, 1, n, len(refDedupSorted(seeds)) + 1} {
			if got, want := KHop(g, seeds, k, maxNodes), refKHop(g, seeds, k, maxNodes); !slices.Equal(got, want) {
				t.Fatalf("trial %d: KHop(%v, %d, %d) = %v, want %v", trial, seeds, k, maxNodes, got, want)
			}
		}
	}
}

// Induced records each subgraph edge's parent id: the ids equal the
// reference's induced edge ids of the same node set (duplicates and empty
// included), and local edge i joins the local images of parent edge
// GlobalEdge[i]'s ends.
func TestInducedGlobalEdgeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(90)
		b := NewBuilder(n)
		for i := rng.Intn(6 * n); i > 0; i-- {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		nodes := make([]NodeID, rng.Intn(3*n))
		for i := range nodes {
			nodes[i] = NodeID(rng.Intn(n))
		}
		if trial%10 == 0 {
			nodes = nil
		}
		sub := Induced(g, nodes)
		if want := refInducedEdgeIDs(g, nodes); !slices.Equal(sub.GlobalEdge, want) {
			t.Fatalf("trial %d: Induced(%v).GlobalEdge = %v, reference %v", trial, nodes, sub.GlobalEdge, want)
		}
		if sub.Parent != g {
			t.Fatalf("trial %d: Parent is not the graph extracted from", trial)
		}
		sub.G.Edges(func(e EdgeID, lu, lv NodeID) bool {
			pe := sub.GlobalEdge[e]
			if u, v := g.EdgeSource(pe), g.EdgeTarget(pe); u != sub.Global[lu] || v != sub.Global[lv] {
				t.Fatalf("trial %d: local edge %d (%d→%d) maps to parent edge %d→%d", trial, e, sub.Global[lu], sub.Global[lv], u, v)
			}
			return true
		})
	}
}

// The cases the property test reaches only by chance, pinned.
func TestKHopEdgeCases(t *testing.T) {
	g := subTestGraph()
	for _, c := range []struct {
		name     string
		seeds    []NodeID
		k, limit int
	}{
		{"no seeds", nil, 2, 0},
		{"seeds beyond cap", []NodeID{4, 3, 2, 1, 0}, 2, 2},
		{"seeds fill cap exactly", []NodeID{1, 3}, 2, 2},
		{"cap cuts mid-layer", []NodeID{3}, 2, 2},
		{"cap cuts second layer", []NodeID{3}, 2, 4},
		{"k zero", []NodeID{2, 2}, 0, 0},
		{"cap above n", []NodeID{0}, 3, 99},
	} {
		got, want := KHop(g, c.seeds, c.k, c.limit), refKHop(g, c.seeds, c.k, c.limit)
		if !slices.Equal(got, want) {
			t.Errorf("%s: KHop = %v, want %v", c.name, got, want)
		}
	}
	if sub := Induced(g, []NodeID{0, 4}); sub.G.NumEdges() != 0 || len(sub.GlobalEdge) != 0 || len(sub.Global) != 2 {
		t.Errorf("Induced with no induced edge: %d nodes, %d edges, edge ids %v", len(sub.Global), sub.G.NumEdges(), sub.GlobalEdge)
	}
}

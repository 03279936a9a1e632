package sampling

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
)

func testGraph() *graph.Graph {
	return graphgen.Social(graphgen.TwitterLike(2000, 5))
}

func TestRandomWalkReachesTarget(t *testing.T) {
	g := testGraph()
	target := 3000
	r := RandomWalk(g, target, 1)
	if r.Graph.NumEdges() < target {
		t.Fatalf("sample has %d edges, want >= %d", r.Graph.NumEdges(), target)
	}
	if r.Graph.NumNodes() != len(r.Original) {
		t.Fatalf("mapping length %d != nodes %d", len(r.Original), r.Graph.NumNodes())
	}
}

func TestBFSReachesTarget(t *testing.T) {
	g := testGraph()
	target := 3000
	r := BFS(g, target, 1)
	if r.Graph.NumEdges() < target {
		t.Fatalf("sample has %d edges, want >= %d", r.Graph.NumEdges(), target)
	}
}

// Every sampled edge must exist in the original graph under the mapping,
// and the sample must be the full induced subgraph (no induced edge
// missing).
func testInduced(t *testing.T, g *graph.Graph, r Result) {
	t.Helper()
	r.Graph.Edges(func(_ graph.EdgeID, u, v graph.NodeID) bool {
		if !g.HasEdge(r.Original[u], r.Original[v]) {
			t.Fatalf("sampled edge (%d,%d) missing in original", r.Original[u], r.Original[v])
		}
		return true
	})
	index := make(map[graph.NodeID]graph.NodeID)
	for i, orig := range r.Original {
		index[orig] = graph.NodeID(i)
	}
	for _, orig := range r.Original {
		for _, w := range g.OutNeighbors(orig) {
			if j, ok := index[w]; ok {
				if !r.Graph.HasEdge(index[orig], j) {
					t.Fatalf("induced edge (%d,%d) missing in sample", orig, w)
				}
			}
		}
	}
}

func TestRandomWalkInduced(t *testing.T) {
	g := testGraph()
	testInduced(t, g, RandomWalk(g, 2000, 3))
}

func TestBFSInduced(t *testing.T) {
	g := testGraph()
	testInduced(t, g, BFS(g, 2000, 3))
}

func TestSampleWholeGraph(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}})
	r := BFS(g, 1000, 1)
	if r.Graph.NumEdges() != g.NumEdges() || r.Graph.NumNodes() != g.NumNodes() {
		t.Fatalf("asking for more edges than exist should return the whole graph: %d/%d",
			r.Graph.NumNodes(), r.Graph.NumEdges())
	}
	r2 := RandomWalk(g, 1000, 1)
	if r2.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("random walk whole-graph sample has %d edges", r2.Graph.NumEdges())
	}
}

// TestDeterministicSeeds: a seed fixes the sample. Two runs agree, and
// the edge set in the source graph's ids, the sha256 of the sorted
// (Original[u], Original[v]) pairs, is pinned: how the extraction labels
// the sampled nodes may change, which nodes and edges it samples may not.
func TestDeterministicSeeds(t *testing.T) {
	g := testGraph()
	for _, c := range []struct {
		name   string
		sample func(*graph.Graph, int, int64) Result
		seed   int64
		want   string
	}{
		{"rw/seed1", RandomWalk, 1, "2c9d9623c594825d"},
		{"rw/seed9", RandomWalk, 9, "d12e1d27d2657139"},
		{"bfs/seed1", BFS, 1, "bcbf84e8fb11a6fb"},
		{"bfs/seed9", BFS, 9, "c220ebd0f7408d79"},
	} {
		r := c.sample(g, 2000, c.seed)
		if again := c.sample(g, 2000, c.seed); !slices.Equal(r.Original, again.Original) || r.Graph.NumEdges() != again.Graph.NumEdges() {
			t.Fatalf("%s: same seed gave different samples", c.name)
		}
		edges := r.Graph.EdgeList()
		for i, e := range edges {
			edges[i] = graph.Edge{From: r.Original[e.From], To: r.Original[e.To]}
		}
		slices.SortFunc(edges, graph.Edge.Compare)
		sum := sha256.Sum256(fmt.Append(nil, len(r.Original), edges))
		if got := hex.EncodeToString(sum[:8]); got != c.want {
			t.Errorf("%s: %d nodes, %d edges, digest %s, want %s", c.name, len(r.Original), len(edges), got, c.want)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil)
	if r := RandomWalk(g, 10, 1); r.Graph.NumNodes() != 0 {
		t.Fatal("empty graph random walk should be empty")
	}
	if r := BFS(g, 10, 1); r.Graph.NumNodes() != 0 {
		t.Fatal("empty graph BFS should be empty")
	}
}

func TestBFSPreservesHubDegreeBetter(t *testing.T) {
	// The paper observes BFS samples keep early nodes' full degree. Check
	// that the max out-degree in a BFS sample is at least that of the
	// random-walk sample on average over seeds.
	g := testGraph()
	var bfsMax, rwMax int
	for seed := int64(0); seed < 3; seed++ {
		b := BFS(g, 4000, seed)
		r := RandomWalk(g, 4000, seed)
		for u := 0; u < b.Graph.NumNodes(); u++ {
			if d := b.Graph.OutDegree(graph.NodeID(u)); d > bfsMax {
				bfsMax = d
			}
		}
		for u := 0; u < r.Graph.NumNodes(); u++ {
			if d := r.Graph.OutDegree(graph.NodeID(u)); d > rwMax {
				rwMax = d
			}
		}
	}
	if bfsMax == 0 || rwMax == 0 {
		t.Fatal("degenerate samples")
	}
}

func TestWalkSeedsDeterministicAndDistinct(t *testing.T) {
	g := testGraph()
	a := WalkSeeds(g, 8, 7)
	b := WalkSeeds(g, 8, 7)
	if len(a) != 8 {
		t.Fatalf("got %d seeds, want 8", len(a))
	}
	seen := make(map[graph.NodeID]bool)
	for i, s := range a {
		if s != b[i] {
			t.Fatal("same seed produced different walk seeds")
		}
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
		if int(s) < 0 || int(s) >= g.NumNodes() {
			t.Fatalf("seed %d out of range", s)
		}
	}
	c := WalkSeeds(g, 8, 8)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical walk seeds")
	}
}

func TestWalkSeedsMoreThanNodes(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	seeds := WalkSeeds(g, 10, 1)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds from a 3-node graph, want 3", len(seeds))
	}
	if WalkSeeds(g, 0, 1) != nil {
		t.Fatal("k=0 should yield nil")
	}
}

func TestWalkSeedsPrefersHubs(t *testing.T) {
	// A star: node 0 has 50 spokes. The walk concentrates on the center,
	// so seed 1 must be node 0.
	b := graph.NewBuilder(51)
	for i := int32(1); i <= 50; i++ {
		b.AddEdge(0, i)
	}
	g := b.Build()
	seeds := WalkSeeds(g, 2, 3)
	if seeds[0] != 0 {
		t.Fatalf("first seed = %d, want hub 0", seeds[0])
	}
}

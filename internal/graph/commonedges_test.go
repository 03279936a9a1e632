package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCommonInEdgesBasic(t *testing.T) {
	// 0→2, 1→2, 3→2 ; 0→4, 3→4 → common producers of 2 and 4: {0, 3}.
	g := FromEdges(5, []Edge{{0, 2}, {1, 2}, {3, 2}, {0, 4}, {3, 4}})
	xs, ea, eb := g.CommonInEdges(2, 4, 0, nil, nil, nil)
	if len(xs) != 2 || xs[0] != 0 || xs[1] != 3 {
		t.Fatalf("xs = %v, want [0 3]", xs)
	}
	for i, x := range xs {
		if g.EdgeSource(ea[i]) != x || g.EdgeTarget(ea[i]) != 2 {
			t.Fatalf("ea[%d] = %d is not %d→2", i, ea[i], x)
		}
		if g.EdgeSource(eb[i]) != x || g.EdgeTarget(eb[i]) != 4 {
			t.Fatalf("eb[%d] = %d is not %d→4", i, eb[i], x)
		}
	}
}

func TestCommonInEdgesLimit(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 2}, {1, 2}, {3, 2}, {0, 4}, {1, 4}, {3, 4}})
	xs, ea, eb := g.CommonInEdges(2, 4, 2, nil, nil, nil)
	if len(xs) != 2 || len(ea) != 2 || len(eb) != 2 {
		t.Fatalf("limit 2 returned %d entries", len(xs))
	}
}

func TestCommonInEdgesAppendsToBuffers(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {0, 2}})
	xs := []NodeID{99}
	ea := []EdgeID{77}
	eb := []EdgeID{88}
	xs, ea, eb = g.CommonInEdges(1, 2, 0, xs, ea, eb)
	if xs[0] != 99 || ea[0] != 77 || eb[0] != 88 {
		t.Fatal("existing buffer contents clobbered")
	}
	if len(xs) != 2 || xs[1] != 0 {
		t.Fatalf("xs = %v", xs)
	}
}

// matchesReference reports where CommonInEdges(a, b, limit) departs from
// the linear-merge reference, CommonInNeighbors plus EdgeID lookups.
func matchesReference(g *Graph, a, b NodeID, limit int) error {
	want := g.CommonInNeighbors(a, b, limit)
	xs, ea, eb := g.CommonInEdges(a, b, limit, nil, nil, nil)
	if len(xs) != len(want) || len(ea) != len(want) || len(eb) != len(want) {
		return fmt.Errorf("pair %d,%d limit %d: %d producers, want %d", a, b, limit, len(xs), len(want))
	}
	for i, x := range want {
		wa, _ := g.EdgeID(x, a)
		wb, _ := g.EdgeID(x, b)
		if xs[i] != x || ea[i] != wa || eb[i] != wb {
			return fmt.Errorf("pair %d,%d limit %d: entry %d = (%d, %d, %d), want (%d, %d, %d)",
				a, b, limit, i, xs[i], ea[i], eb[i], x, wa, wb)
		}
	}
	return nil
}

// TestCommonInEdgesSkewed holds CommonInEdges to the reference at every
// skew: on a planted celebrity whose in-list dwarfs the other's by far
// more than GallopFactor, in both orders, and on random graphs over
// balanced pairs and pairs skewed beyond GallopFactor alike, at limits 0,
// 1 and 3.
func TestCommonInEdgesSkewed(t *testing.T) {
	const n = 1200
	b := NewBuilder(n)
	// Node 0 is the celebrity: everyone follows it. Node 1 hears from a
	// sparse arithmetic sprinkle, so the intersection is exactly that
	// sprinkle (minus non-followers of 0 — there are none).
	for u := 2; u < n; u++ {
		b.AddEdge(NodeID(u), 0)
	}
	for u := 5; u < n; u += 97 {
		b.AddEdge(NodeID(u), 1)
	}
	g := b.Build()
	limits := []int{0, 1, 3}
	for _, pair := range [][2]NodeID{{0, 1}, {1, 0}} {
		for _, limit := range limits {
			if err := matchesReference(g, pair[0], pair[1], limit); err != nil {
				t.Fatal(err)
			}
		}
	}

	var balanced, skewed int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(240)
		b := NewBuilder(n)
		celeb := NodeID(rng.Intn(n))
		for u := 0; u < n; u++ {
			if u != int(celeb) && rng.Float64() < 0.8 {
				b.AddEdge(NodeID(u), celeb)
			}
		}
		for i := 0; i < 4*n; i++ {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		for trial := 0; trial < 200; trial++ {
			a, c := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if trial%4 == 0 {
				a = celeb
			} else if trial%4 == 1 {
				c = celeb
			}
			la, lc := len(g.InNeighbors(a)), len(g.InNeighbors(c))
			if la > GallopFactor*lc || lc > GallopFactor*la {
				skewed++
			} else {
				balanced++
			}
			for _, limit := range limits {
				if err := matchesReference(g, a, c, limit); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
	}
	if balanced == 0 || skewed == 0 {
		t.Fatalf("%d balanced and %d skewed pairs: the comparison missed a kind", balanced, skewed)
	}
}

// Property: CommonInEdges agrees with the reference on random graphs with
// a planted celebrity, across random (a, b) pairs involving it.
func TestQuickCommonInEdgesGallopAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(400)
		b := NewBuilder(n)
		celeb := NodeID(rng.Intn(n))
		for u := 0; u < n; u++ {
			if u != int(celeb) && rng.Float64() < 0.9 {
				b.AddEdge(NodeID(u), celeb)
			}
		}
		for i := 0; i < 3*n; i++ {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		for trial := 0; trial < 10; trial++ {
			other := NodeID(rng.Intn(n))
			a, c := celeb, other
			if rng.Intn(2) == 0 {
				a, c = other, celeb
			}
			limit := 0
			if rng.Intn(2) == 0 {
				limit = 1 + rng.Intn(5)
			}
			if matchesReference(g, a, c, limit) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: CommonInEdges agrees with CommonInNeighbors plus EdgeID
// lookups on random graphs.
func TestQuickCommonInEdgesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		b := NewBuilder(n)
		for i := 0; i < 6*n; i++ {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		for trial := 0; trial < 10; trial++ {
			if matchesReference(g, NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 0) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

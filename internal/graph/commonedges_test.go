package graph

import (
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

// TestCommonInEdgesSkewed forces the galloping path: one endpoint is a
// celebrity whose in-list dwarfs the other's by far more than
// GallopFactor, in both orders, with and without a limit. The result
// must match the linear-merge reference (CommonInNeighbors + EdgeID).
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
	for _, pair := range [][2]NodeID{{0, 1}, {1, 0}} {
		for _, limit := range []int{0, 3} {
			want := g.CommonInNeighbors(pair[0], pair[1], limit)
			xs, ea, eb := g.CommonInEdges(pair[0], pair[1], limit, nil, nil, nil)
			if len(xs) != len(want) {
				t.Fatalf("pair %v limit %d: %d producers, want %d", pair, limit, len(xs), len(want))
			}
			for i, x := range xs {
				if x != want[i] {
					t.Fatalf("pair %v limit %d: xs[%d] = %d, want %d", pair, limit, i, x, want[i])
				}
				wa, ok1 := g.EdgeID(x, pair[0])
				wb, ok2 := g.EdgeID(x, pair[1])
				if !ok1 || !ok2 || ea[i] != wa || eb[i] != wb {
					t.Fatalf("pair %v: edge ids for producer %d wrong", pair, x)
				}
			}
		}
	}
}

// Property: the galloping and linear merges agree on random graphs with a
// planted celebrity, across random (a, b) pairs involving it.
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
			want := g.CommonInNeighbors(a, c, limit)
			xs, ea, eb := g.CommonInEdges(a, c, limit, nil, nil, nil)
			if len(xs) != len(want) {
				return false
			}
			for i := range want {
				if xs[i] != want[i] {
					return false
				}
				wa, _ := g.EdgeID(want[i], a)
				wc, _ := g.EdgeID(want[i], c)
				if ea[i] != wa || eb[i] != wc {
					return false
				}
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
			a := NodeID(rng.Intn(n))
			c := NodeID(rng.Intn(n))
			want := g.CommonInNeighbors(a, c, 0)
			xs, ea, eb := g.CommonInEdges(a, c, 0, nil, nil, nil)
			if len(xs) != len(want) {
				return false
			}
			for i := range want {
				if xs[i] != want[i] {
					return false
				}
				wa, _ := g.EdgeID(want[i], a)
				wc, _ := g.EdgeID(want[i], c)
				if ea[i] != wa || eb[i] != wc {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

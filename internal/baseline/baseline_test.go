package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/workload"
)

func small() (*graph.Graph, *workload.Rates) {
	g := graphgen.Social(graphgen.TwitterLike(300, 1))
	return g, workload.LogDegree(g, 5)
}

func TestAllValid(t *testing.T) {
	g, r := small()
	for name, s := range map[string]interface{ Validate() error }{
		"push-all": PushAll(g),
		"pull-all": PullAll(g),
		"hybrid":   Hybrid(g, r),
	} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
	}
}

func TestPushAllCost(t *testing.T) {
	g, r := small()
	want := 0.0
	g.Edges(func(_ graph.EdgeID, u, _ graph.NodeID) bool {
		want += r.Prod[u]
		return true
	})
	if got := PushAll(g).Cost(r); math.Abs(got-want) > 1e-9 {
		t.Fatalf("PushAll cost = %v, want %v", got, want)
	}
}

func TestPullAllCost(t *testing.T) {
	g, r := small()
	want := 0.0
	g.Edges(func(_ graph.EdgeID, _, v graph.NodeID) bool {
		want += r.Cons[v]
		return true
	})
	if got := PullAll(g).Cost(r); math.Abs(got-want) > 1e-9 {
		t.Fatalf("PullAll cost = %v, want %v", got, want)
	}
}

func TestHybridNeverWorseThanEither(t *testing.T) {
	g, r := small()
	h := Hybrid(g, r).Cost(r)
	if push := PushAll(g).Cost(r); h > push+1e-9 {
		t.Fatalf("hybrid %v worse than push-all %v", h, push)
	}
	if pull := PullAll(g).Cost(r); h > pull+1e-9 {
		t.Fatalf("hybrid %v worse than pull-all %v", h, pull)
	}
}

func TestHybridCostAgreesWithSchedule(t *testing.T) {
	g, r := small()
	want := Hybrid(g, r).Cost(r)
	if got := HybridCost(g, r); math.Abs(got-want) > 1e-6 {
		t.Fatalf("HybridCost = %v, schedule cost %v", got, want)
	}
}

func TestEdgeCost(t *testing.T) {
	r := &workload.Rates{Prod: []float64{3, 10}, Cons: []float64{1, 7}}
	if got := EdgeCost(r, 0, 1); got != 3 {
		t.Fatalf("EdgeCost = %v, want 3 (push cheaper)", got)
	}
	if got := EdgeCost(r, 1, 0); got != 1 {
		t.Fatalf("EdgeCost = %v, want 1 (pull cheaper)", got)
	}
}

// EdgeCost's builtin min returns math.Min's bits for every pair of rates
// Rates.Validate admits, and for +Inf: zeros of both signs, subnormals,
// the normal edge, equal values and the largest finite float.
func TestEdgeCostIsMathMinBitwise(t *testing.T) {
	lattice := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), 0x1p-1022, 0.5, 1, math.Nextafter(1, 2),
		3, math.MaxFloat64 / 2, math.Nextafter(math.MaxFloat64, 0), math.MaxFloat64, math.Inf(1),
	}
	r := &workload.Rates{Prod: lattice, Cons: lattice}
	for u, p := range lattice {
		for v, c := range lattice {
			got, want := EdgeCost(r, graph.NodeID(u), graph.NodeID(v)), math.Min(p, c)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("EdgeCost(%v, %v) = %v (%#x), math.Min gives %v (%#x)",
					p, c, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestReadDominatedPrefersPushAll(t *testing.T) {
	// With consumption far above production, hybrid ≈ push-all < pull-all.
	g := graphgen.Social(graphgen.FlickrLike(200, 2))
	r := workload.LogDegree(g, 100)
	h := Hybrid(g, r).Cost(r)
	push := PushAll(g).Cost(r)
	pull := PullAll(g).Cost(r)
	if h != push {
		// hybrid can only differ if some rc < rp; with ratio 100 that is
		// vanishingly rare but possible on isolated nodes — allow h <= push.
		if h > push {
			t.Fatalf("hybrid %v above push-all %v on read-dominated workload", h, push)
		}
	}
	if push >= pull {
		t.Fatalf("push-all %v should beat pull-all %v when reads dominate", push, pull)
	}
}

// Property: hybrid is the per-edge optimum: its cost equals the sum of
// per-edge minima and is ≤ any all-direct schedule's cost.
func TestQuickHybridOptimalDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := graphgen.ErdosRenyi(n, 3*n, seed)
		r := workload.LogDegree(g, 0.5+rng.Float64()*20)
		want := 0.0
		g.Edges(func(_ graph.EdgeID, u, v graph.NodeID) bool {
			want += math.Min(r.Prod[u], r.Cons[v])
			return true
		})
		return math.Abs(Hybrid(g, r).Cost(r)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

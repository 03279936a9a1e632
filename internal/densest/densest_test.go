package densest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func inf() float64 { return math.Inf(1) }

// density is |E(S)|/g(S); +Inf if g(S)=0 and |E(S)|>0; 0 if both 0.
func density(r Result) float64 {
	if r.Weight == 0 {
		if r.EdgeCnt > 0 {
			return inf()
		}
		return 0
	}
	return float64(r.EdgeCnt) / r.Weight
}

func unitWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestEmptyInstance(t *testing.T) {
	r := Peel(Instance{}, nil)
	if r.EdgeCnt != 0 || density(r) != 0 {
		t.Fatalf("empty instance: %+v", r)
	}
}

func TestSingleEdge(t *testing.T) {
	inst := Instance{N: 2, Edges: [][2]int32{{0, 1}}, Weight: unitWeights(2)}
	r := Peel(inst, nil)
	if r.EdgeCnt != 1 || r.Weight != 2 {
		t.Fatalf("single edge: %+v", r)
	}
	if math.Abs(density(r)-0.5) > 1e-12 {
		t.Fatalf("density = %v, want 0.5", density(r))
	}
}

func TestCliquePlusPendant(t *testing.T) {
	// 4-clique (density 6/4=1.5 unweighted) plus a pendant node lowering
	// density if included (7/5=1.4). Peel should return the clique.
	edges := [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}}
	inst := Instance{N: 5, Edges: edges, Weight: unitWeights(5)}
	r := Peel(inst, nil)
	if len(r.Members) != 4 || r.EdgeCnt != 6 {
		t.Fatalf("expected 4-clique, got %+v", r)
	}
	for _, m := range r.Members {
		if m == 4 {
			t.Fatal("pendant node included")
		}
	}
}

func TestWeightsSteerSelection(t *testing.T) {
	// Two disjoint edges; one endpoint pair cheap, the other expensive.
	inst := Instance{
		N:      4,
		Edges:  [][2]int32{{0, 1}, {2, 3}},
		Weight: []float64{1, 1, 100, 100},
	}
	r := Peel(inst, nil)
	// Densest subset = {0,1}: density 1/2 vs 1/200 (or 2/202 combined).
	if len(r.Members) != 2 || r.Members[0] != 0 || r.Members[1] != 1 {
		t.Fatalf("expected cheap pair, got %+v", r)
	}
}

func TestZeroWeightFreeCoverage(t *testing.T) {
	// A zero-weight pair with an edge has infinite density.
	inst := Instance{
		N:      3,
		Edges:  [][2]int32{{0, 1}, {1, 2}},
		Weight: []float64{0, 0, 5},
	}
	r := Peel(inst, nil)
	if !math.IsInf(density(r), 1) {
		t.Fatalf("density = %v, want +Inf", density(r))
	}
	if r.EdgeCnt < 1 {
		t.Fatalf("free subgraph should keep at least one edge: %+v", r)
	}
}

func TestDenserComparison(t *testing.T) {
	a := Result{EdgeCnt: 3, Weight: 2} // 1.5
	b := Result{EdgeCnt: 2, Weight: 2} // 1.0
	if !a.Denser(b) || b.Denser(a) {
		t.Fatal("Denser comparison wrong")
	}
	// Equal ratio: prefer more edges.
	c := Result{EdgeCnt: 2, Weight: 4}
	d := Result{EdgeCnt: 1, Weight: 2}
	if !c.Denser(d) {
		t.Fatal("equal ratio should prefer more edges")
	}
	// Infinite beats finite.
	e := Result{EdgeCnt: 1, Weight: 0}
	if !e.Denser(a) || a.Denser(e) {
		t.Fatal("infinite density should win")
	}
}

func TestExactSmall(t *testing.T) {
	// Triangle + expensive tail: exact densest is the triangle (3/3 = 1,
	// vs 5/9 for the whole graph with tail weights 3).
	inst := Instance{
		N:      5,
		Edges:  [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}},
		Weight: []float64{1, 1, 1, 3, 3},
	}
	r := Exact(inst, nil)
	if r.EdgeCnt != 3 || r.Weight != 3 || len(r.Members) != 3 {
		t.Fatalf("Exact: %+v", r)
	}
}

func TestExactPanicsOnLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exact on large instance should panic")
		}
	}()
	Exact(Instance{N: 30, Weight: make([]float64, 30)}, nil)
}

// Property (Lemma 1): Peel achieves at least half the optimal density on
// random weighted instances.
func TestQuickTwoApproximation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9) // Exact is exponential; keep small
		var edges [][2]int32
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.4 {
					edges = append(edges, [2]int32{int32(a), int32(b)})
				}
			}
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = 0.1 + rng.Float64()*5
			if rng.Float64() < 0.15 {
				w[i] = 0 // exercise zero weights
			}
		}
		inst := Instance{N: n, Edges: edges, Weight: w}
		opt := Exact(inst, nil)
		got := Peel(inst, nil)
		// density(got) * 2 >= density(opt), compared without division:
		// 2*gotE*optW >= optE*gotW
		lhs := 2 * float64(got.EdgeCnt) * opt.Weight
		rhs := float64(opt.EdgeCnt) * got.Weight
		if opt.Weight == 0 && opt.EdgeCnt > 0 {
			// Optimal is infinite; Peel must also find an infinite-density
			// subgraph (zero weight, positive edges).
			return got.Weight == 0 && got.EdgeCnt > 0
		}
		return lhs >= rhs-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: Peel's reported members are consistent with its edge count
// and weight.
func TestQuickResultConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		var edges [][2]int32
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				edges = append(edges, [2]int32{int32(a), int32(b)})
			}
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64() * 3
		}
		inst := Instance{N: n, Edges: edges, Weight: w}
		r := Peel(inst, nil)
		in := make(map[int32]bool, len(r.Members))
		for _, u := range r.Members {
			in[u] = true
		}
		wantW := 0.0
		for u := range in {
			wantW += w[u]
		}
		wantE := 0
		for _, e := range edges {
			if in[e[0]] && in[e[1]] {
				wantE++
			}
		}
		return wantE == r.EdgeCnt && math.Abs(wantW-r.Weight) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A reused Scratch must never leak state between calls: interleave
// instances of different shapes through one arena and compare each result
// against a scratch-free call.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc Scratch
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(30)
		var edges [][2]int32
		m := rng.Intn(4 * n)
		for i := 0; i < m; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				edges = append(edges, [2]int32{int32(a), int32(b)})
			}
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64() * 3
			if rng.Float64() < 0.2 {
				w[i] = 0
			}
		}
		inst := Instance{N: n, Edges: edges, Weight: w}
		got := Peel(inst, &sc)
		want := Peel(inst, nil)
		if got.EdgeCnt != want.EdgeCnt || got.Weight != want.Weight ||
			len(got.Members) != len(want.Members) {
			t.Fatalf("round %d: scratch %+v != fresh %+v", round, got, want)
		}
		for i := range got.Members {
			if got.Members[i] != want.Members[i] {
				t.Fatalf("round %d: members differ at %d", round, i)
			}
		}
	}
}

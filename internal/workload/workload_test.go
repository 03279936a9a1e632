package workload

import (
	"math"
	"reflect"
	"testing"

	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/stats"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestUniform(t *testing.T) {
	r := NewUniform(10, 5)
	if len(r.Prod) != 10 {
		t.Fatalf("N = %d", len(r.Prod))
	}
	if !almost(stats.Mean(r.Cons)/stats.Mean(r.Prod), 5) {
		t.Fatalf("ratio = %v", stats.Mean(r.Cons)/stats.Mean(r.Prod))
	}
	if err := r.Validate(10); err != nil {
		t.Fatal(err)
	}
}

func TestLogDegreeRatio(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(1000, 2))
	for _, ratio := range []float64{1, 5, 100} {
		r := LogDegree(g, ratio)
		if !almost(stats.Mean(r.Cons)/stats.Mean(r.Prod), ratio) {
			t.Fatalf("ratio %v: got %v", ratio, stats.Mean(r.Cons)/stats.Mean(r.Prod))
		}
		if err := r.Validate(g.NumNodes()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLogDegreeMonotonicInDegree(t *testing.T) {
	// Star: node 0 followed by 1,2,3 (edges 0→1,0→2,0→3): node 0 has 3
	// followers, so highest production rate.
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 0, To: 3}})
	r := LogDegree(g, 5)
	for u := 1; u < 4; u++ {
		if r.Prod[0] <= r.Prod[u] {
			t.Fatalf("celebrity production %v not above leaf %v", r.Prod[0], r.Prod[u])
		}
		if r.Cons[u] <= r.Cons[0] {
			t.Fatalf("follower consumption %v not above celebrity %v", r.Cons[u], r.Cons[0])
		}
	}
}

func TestWithRatioRescales(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(500, 4))
	base := LogDegree(g, 5)
	for _, ratio := range []float64{1, 2, 10, 100} {
		r := base.WithRatio(ratio)
		if !almost(stats.Mean(r.Cons)/stats.Mean(r.Prod), ratio) {
			t.Fatalf("WithRatio(%v) ratio = %v", ratio, stats.Mean(r.Cons)/stats.Mean(r.Prod))
		}
	}
	// Original untouched.
	if !almost(stats.Mean(base.Cons)/stats.Mean(base.Prod), 5) {
		t.Fatal("WithRatio mutated the receiver")
	}
	// Relative production ordering preserved.
	r := base.WithRatio(10)
	for i := range base.Prod {
		if r.Prod[i] != base.Prod[i] {
			t.Fatal("WithRatio should not change production rates")
		}
	}
}

func TestValidateErrors(t *testing.T) {
	r := NewUniform(3, 5)
	if err := r.Validate(4); err == nil {
		t.Fatal("length mismatch not caught")
	}
	r.Prod[1] = math.NaN()
	if err := r.Validate(3); err == nil {
		t.Fatal("NaN rate not caught")
	}
	r.Prod[1] = -1
	if err := r.Validate(3); err == nil {
		t.Fatal("negative rate not caught")
	}
}

// TestValidRate pins the one rate rule: finite and non-negative, zero
// and the largest float64 included.
func TestValidRate(t *testing.T) {
	for _, x := range []float64{0, 1, math.MaxFloat64} {
		if !ValidRate(x) {
			t.Errorf("ValidRate(%v) = false", x)
		}
	}
	for _, x := range []float64{-1, math.Copysign(math.SmallestNonzeroFloat64, -1), math.Inf(1), math.Inf(-1), math.NaN()} {
		if ValidRate(x) {
			t.Errorf("ValidRate(%v) = true", x)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil)
	r := LogDegree(g, 5)
	if len(r.Prod) != 0 {
		t.Fatalf("N = %d", len(r.Prod))
	}
	if err := r.Validate(0); err != nil {
		t.Fatal(err)
	}
}

func TestProjectRates(t *testing.T) {
	r := &Rates{Prod: []float64{1, 2, 3, 4}, Cons: []float64{5, 6, 7, 8}}
	p := r.Project([]graph.NodeID{3, 1})
	if !reflect.DeepEqual(p.Prod, []float64{4, 2}) || !reflect.DeepEqual(p.Cons, []float64{8, 6}) {
		t.Fatalf("Project = %+v", p)
	}
}

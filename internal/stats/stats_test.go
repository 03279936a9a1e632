package stats

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanVarianceSlice(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if !almost(Mean(xs), 2.5) {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if !almost(Variance(xs), 1.25) {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("nil slice should yield 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated input")
	}
}

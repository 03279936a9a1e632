package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestStreamBasic(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5) {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if !almost(s.Variance(), 4) {
		t.Fatalf("Variance = %v, want 4", s.Variance())
	}
	if !almost(s.StdDev(), 2) {
		t.Fatalf("StdDev = %v, want 2", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.Variance() != 0 || s.N() != 0 {
		t.Fatal("empty stream should report zeros")
	}
}

func TestStreamSingle(t *testing.T) {
	var s Stream
	s.Add(42)
	if s.Mean() != 42 || s.Variance() != 0 || s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("single-sample stream: %s", s.String())
	}
}

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

// Property: streaming mean/variance agree with the batch formulas.
func TestQuickStreamMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(300)
		xs := make([]float64, n)
		var s Stream
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			s.Add(xs[i])
		}
		return math.Abs(s.Mean()-Mean(xs)) < 1e-6 &&
			math.Abs(s.Variance()-Variance(xs)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile (0 < p < 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	// The epsilon keeps p*n that should be whole (0.95 × 200) from
	// rounding up a rank.
	rank := int(math.Ceil(p*float64(len(s))-1e-9)) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// tail returns the p-th percentile when at least minBeyond samples lie
// beyond it. With fewer samples it lowers p to the highest percentile
// that still has minBeyond samples beyond it, and never below the
// median; used reports the percentile actually taken.
func tail(xs []float64, p float64) (v, used float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	used = math.Min(p, 1-minBeyond/n)
	if used <= 0.5 {
		return median(xs), 0.5
	}
	return percentile(xs, used), used
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the driver's spread rule).
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

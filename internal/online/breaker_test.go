package online

import (
	"errors"
	"strings"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/fault"
	"piggyback/internal/graphgen"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

// TestDaemonBreakerQuarantinesFailingSolver drives the daemon with a
// regional solver that panics on its first solves: the breaker (fed by
// WithRecover) must absorb the panics, trip, serve re-solves from the
// fallback, and close again through a half-open probe once the primary
// recovers — all without a panic escaping or the schedule degrading
// into invalidity.
func TestDaemonBreakerQuarantinesFailingSolver(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(400, 250), 7))
	base := workload.LogDegree(g, 5)
	r := freshRates(g, base)
	init := chitchat.Solve(g, r, chitchat.Config{})
	trace := workload.GenerateChurn(g, base, scaled(2500, 1200), workload.ChurnConfig{Seed: 7})

	// The primary panics on solves 1..3, healthy afterwards.
	primary := solver.Chain(solver.NewChitChat(chitchat.Config{}), fault.SolverPanics(1, 4))
	d, err := New(init, r, Config{
		Regional:          primary,
		Fallback:          solver.NewChitChat(chitchat.Config{}),
		BreakerThreshold:  2,
		BreakerProbeEvery: 2,
		DriftThreshold:    0.02,
		CheckEvery:        8,
		BudgetFraction:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyTrace(trace); err != nil {
		t.Fatalf("trace failed: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("final schedule invalid: %v", err)
	}
	st := d.Stats()
	if st.Breaker == nil {
		t.Fatal("Stats().Breaker is nil with Fallback configured")
	}
	b := *st.Breaker
	if b.Trips == 0 {
		t.Fatalf("breaker never tripped: %+v", b)
	}
	if b.FallbackSolves == 0 {
		t.Fatalf("fallback never served a re-solve: %+v", b)
	}
	if b.Closes == 0 || b.Open {
		t.Fatalf("breaker never recovered after the primary healed: %+v", b)
	}
	// The first panic happened below the trip threshold and must have
	// surfaced to the daemon as a booked SolverError, not vanished.
	if st.SolverErrors == 0 || st.LastSolverErr == nil {
		t.Fatalf("pre-trip failure not booked: errors=%d err=%v", st.SolverErrors, st.LastSolverErr)
	}
	if !strings.Contains(st.LastSolverErr.Error(), "panic") {
		t.Fatalf("booked error does not carry the recovered panic: %v", st.LastSolverErr)
	}
	// Re-solves kept happening end to end.
	if st.Resolves == 0 {
		t.Fatalf("no accepted re-solves during the trace: %+v", st)
	}
}

// TestDaemonRejectsBadFallback pins the configuration-time check: a
// region-incapable fallback fails New.
func TestDaemonRejectsBadFallback(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(100, 3))
	base := workload.LogDegree(g, 5)
	init := chitchat.Solve(g, base, chitchat.Config{})
	if _, err := New(init, base, Config{Fallback: pushAllSolver(t)}); !errors.Is(err, solver.ErrRegionUnsupported) {
		t.Fatalf("region-incapable fallback: err = %v, want ErrRegionUnsupported", err)
	}
}

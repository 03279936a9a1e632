package online

import (
	"errors"
	"strings"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/graphgen"
	"piggyback/internal/solver"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// quarantine is the breaker the breaker tests hand the daemon as its
// regional solver: primary's panics recovered into failures, two in a row
// trip it, every second re-solve while it is open probes the primary,
// CHITCHAT serves the rest, and each transition lands in ev as
// ("breaker", "closed->open").
func quarantine(primary solver.Solver, ev *telemetry.EventLog) *solver.Breaker {
	return solver.NewBreaker(solver.Chain(primary, solver.WithRecover()), solver.NewChitChat(chitchat.Config{}),
		solver.BreakerConfig{Threshold: 2, ProbeEvery: 2, OnTransition: func(from, to solver.BreakerState) {
			ev.Emit("breaker", from.String()+"->"+to.String())
		}})
}

// TestDaemonBreakerQuarantinesFailingSolver reads the flashcrowd cell
// whose regional solver panics on its first solves (zoo_test.go): the
// breaker (fed by WithRecover) must absorb the panics, trip, serve
// re-solves from the fallback, and close again through a half-open probe
// once the primary recovers — all without a panic escaping or the
// schedule degrading into invalidity.
func TestDaemonBreakerQuarantinesFailingSolver(t *testing.T) {
	zooReplays()
	st := zoo.breaker.st
	if err := zoo.breaker.err; err != nil {
		t.Fatal(err)
	}
	if b := zoo.breaker.bs; b.Trips == 0 || b.FallbackSolves == 0 || b.Closes == 0 || b.Open {
		t.Fatalf("breaker never tripped, served from the fallback or recovered: %+v", b)
	}
	// The first panic happened below the trip threshold and must have
	// surfaced to the daemon as a booked SolverError, not vanished.
	if st.SolverErrors == 0 || st.LastSolverErr == nil || !strings.Contains(st.LastSolverErr.Error(), "panic") {
		t.Fatalf("pre-trip failure not booked with its panic: errors=%d err=%v", st.SolverErrors, st.LastSolverErr)
	}
	if st.Resolves == 0 {
		t.Fatalf("no accepted re-solves during the trace: %+v", st)
	}
}

// TestDaemonRejectsBadFallback pins the configuration-time check: a
// breaker whose fallback is region-incapable fails New.
func TestDaemonRejectsBadFallback(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(100, 3))
	base := workload.LogDegree(g, 5)
	init := chitchat.Solve(g, base, chitchat.Config{})
	b := solver.NewBreaker(solver.NewChitChat(chitchat.Config{}), pushAllSolver(t), solver.BreakerConfig{})
	if _, err := New(init, base, Config{Regional: b}); !errors.Is(err, solver.ErrRegionUnsupported) {
		t.Fatalf("region-incapable fallback: err = %v, want ErrRegionUnsupported", err)
	}
}

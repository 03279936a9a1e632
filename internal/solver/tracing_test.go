package solver

import (
	"context"
	"strings"
	"testing"

	"piggyback/internal/nosy"
	"piggyback/internal/telemetry"
)

func TestWithTracingOutcomeClasses(t *testing.T) {
	g, r := quickProblem(t, 60)
	tr := telemetry.NewTracer(1)

	// Failure: panics surface as class=error after WithRecover.
	sv := Chain(panicSolver{}, WithTracing(tr), WithRecover())
	if _, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r}); err == nil {
		t.Fatal("expected panic-derived error")
	}
	// Cancellation: a pre-canceled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sv = Chain(NewNosy(nosy.Config{Workers: 1}), WithTracing(tr))
	_, _ = sv.Solve(ctx, Problem{Graph: g, Rates: r})

	tree := tr.Tree()
	if !strings.Contains(tree, "failed class=error") {
		t.Fatalf("panic outcome not classed:\n%s", tree)
	}
	if !strings.Contains(tree, "class=canceled") && !strings.Contains(tree, "canceled") {
		t.Fatalf("cancellation outcome missing:\n%s", tree)
	}
}

func TestWithTracingNilTracerIsIdentity(t *testing.T) {
	inner := &scriptedSolver{name: "p", region: true}
	if sv := WithTracing(nil)(inner); sv != Solver(inner) {
		t.Fatalf("nil tracer should return the solver unchanged")
	}
}

// The breaker's OnTransition hook emits the exact closed→open→
// half-open→… sequence through a telemetry event log.
func TestBreakerTransitionEvents(t *testing.T) {
	var log telemetry.EventLog
	primary := &scriptedSolver{name: "p", region: true, fail: func(n int) bool { return n <= 2 }}
	fallback := &scriptedSolver{name: "f", region: true}
	b := NewBreaker(primary, fallback, BreakerConfig{
		Threshold: 2, ProbeEvery: 2,
		OnTransition: func(from, to BreakerState) {
			log.Emit("breaker", from.String()+"->"+to.String())
		},
	})
	ctx := context.Background()
	// Solves 1–2 fail the primary: solve 2 trips (closed→open).
	_, _ = b.Solve(ctx, Problem{})
	_, _ = b.Solve(ctx, Problem{})
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	// Open solve 1: fallback only. Open solve 2: probe — the primary is
	// healthy now (n=3), so open→half-open→closed.
	_, _ = b.Solve(ctx, Problem{})
	res, err := b.Solve(ctx, Problem{})
	if err != nil || res == nil || res.Report.Solver != "p" {
		t.Fatalf("probe solve: res=%+v err=%v, want recovered primary", res, err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	got := log.Attrs("breaker")
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// A failed probe goes back to open, not closed.
func TestBreakerProbeFailureReopens(t *testing.T) {
	var log telemetry.EventLog
	primary := &scriptedSolver{name: "p", region: true, fail: func(n int) bool { return true }}
	fallback := &scriptedSolver{name: "f", region: true}
	b := NewBreaker(primary, fallback, BreakerConfig{
		Threshold: 1, ProbeEvery: 1,
		OnTransition: func(from, to BreakerState) {
			log.Emit("breaker", from.String()+"->"+to.String())
		},
	})
	ctx := context.Background()
	_, _ = b.Solve(ctx, Problem{}) // trips: closed→open
	_, _ = b.Solve(ctx, Problem{}) // probe fails: open→half-open→open
	want := []string{"closed->open", "open->half-open", "half-open->open"}
	got := log.Attrs("breaker")
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, got[i], want[i])
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open after failed probe", b.State())
	}
}

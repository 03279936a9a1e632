package solver

import (
	"context"
	"errors"
	"strings"
	"testing"

	"piggyback/internal/nosy"
	"piggyback/internal/telemetry"
)

// failSolver returns no result and a plain error.
type failSolver struct{}

func (failSolver) Name() string { return "fail" }
func (failSolver) Solve(context.Context, Problem) (*Result, error) {
	return nil, errors.New("no schedule")
}

func TestWithTracingOutcomeClasses(t *testing.T) {
	g, r := quickProblem(t, 60)
	tr := telemetry.NewTracer(1)

	// Failure: a solve that returns an error is class=error.
	sv := WithTracing(tr)(failSolver{})
	if _, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r}); err == nil {
		t.Fatal("expected the solver's error")
	}
	// Cancellation: a pre-canceled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sv = WithTracing(tr)(NewNosy(nosy.Config{Workers: 1}))
	_, _ = sv.Solve(ctx, Problem{Graph: g, Rates: r})

	tree := tr.Tree()
	if !strings.Contains(tree, "failed class=error") {
		t.Fatalf("error outcome not classed:\n%s", tree)
	}
	if !strings.Contains(tree, "class=canceled") && !strings.Contains(tree, "canceled") {
		t.Fatalf("cancellation outcome missing:\n%s", tree)
	}
}

func TestWithTracingNilTracerIsIdentity(t *testing.T) {
	inner := failSolver{}
	if sv := WithTracing(nil)(inner); sv != Solver(inner) {
		t.Fatalf("nil tracer should return the solver unchanged")
	}
}

package fault

import (
	"context"
	"fmt"

	"piggyback/internal/solver"
)

// SolverPanics is middleware that panics on solve invocations from..to
// (1-based, inclusive from, exclusive to), counted per wrapper
// instance. Paired with solver.WithRecover it turns into scheduled hard
// failures — the deterministic way to exercise the circuit breaker.
func SolverPanics(from, to int) solver.Middleware {
	return func(next solver.Solver) solver.Solver {
		return &sabotageSolver{inner: next, from: from, to: to, mode: sabotagePanic}
	}
}

// SolverStalls is middleware that, on solve invocations from..to
// (1-based, inclusive from, exclusive to), ignores the problem and
// blocks until the context is done, then returns (nil, ctx.Err()) — a
// solver that violates the anytime contract, the failure a deadline on
// the daemon's ApplyCtx exists to contain.
func SolverStalls(from, to int) solver.Middleware {
	return func(next solver.Solver) solver.Solver {
		return &sabotageSolver{inner: next, from: from, to: to, mode: sabotageStall}
	}
}

type sabotageMode uint8

const (
	sabotagePanic sabotageMode = iota
	sabotageStall
)

type sabotageSolver struct {
	inner    solver.Solver
	from, to int
	mode     sabotageMode
	n        int
}

func (s *sabotageSolver) Name() string { return s.inner.Name() }

// SupportsRegions delegates so a sabotaged regional solver still passes
// the daemon's configuration-time capability check.
func (s *sabotageSolver) SupportsRegions() bool { return solver.SupportsRegions(s.inner) }

func (s *sabotageSolver) Solve(ctx context.Context, p solver.Problem) (*solver.Result, error) {
	s.n++
	if s.n >= s.from && s.n < s.to {
		switch s.mode {
		case sabotageStall:
			<-ctx.Done()
			return nil, ctx.Err()
		default:
			panic(fmt.Sprintf("fault: injected panic on solve %d of %s", s.n, s.inner.Name()))
		}
	}
	return s.inner.Solve(ctx, p)
}

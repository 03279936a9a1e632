package solver

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/nosy"
	"piggyback/internal/telemetry"
)

// atEvent is the counting stop predicate: cut the solve at its units-th
// progress event, the deterministic work budget.
func atEvent(units int) func(int, ProgressEvent) bool {
	return func(n int, _ ProgressEvent) bool { return n >= units }
}

// Wrapping preserves identity and the progress stream.
func TestMiddlewarePreservesContract(t *testing.T) {
	g, r := quickProblem(t, 60)
	sv := WithTracing(telemetry.NewTracer(1))(WithStop(atEvent(1000))(NewNosy(nosy.Config{Workers: 1})))
	if sv.Name() != Nosy {
		t.Errorf("Name() through 2 layers = %q, want %q", sv.Name(), Nosy)
	}
	var events int
	if !Observe(sv, func(ProgressEvent) { events++ }) {
		t.Fatalf("progress chaining lost through middleware")
	}
	if _, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r}); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Errorf("no progress events reached the outer sink")
	}
}

// A counting stop truncates deterministically: same budget ⇒
// byte-identical schedule, independent of the solver's worker count.
// The stop is a completion (nil error) flagged by Report.Canceled.
func TestWithStopDeterministicTruncation(t *testing.T) {
	g, r := quickProblem(t, 250)

	// Reference: converged run takes more rounds than the budget.
	full := NewNosy(nosy.Config{Workers: 1})
	fres, err := full.Solve(context.Background(), Problem{Graph: g, Rates: r})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 2
	if fres.Report.Iterations <= budget {
		t.Fatalf("instance converges in %d rounds; budget %d does not bite", fres.Report.Iterations, budget)
	}

	var ref []byte
	for _, workers := range []int{1, 4} {
		sv := WithStop(atEvent(budget))(NewNosy(nosy.Config{Workers: workers}))
		res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r})
		if err != nil {
			t.Fatalf("workers=%d: budget stop surfaced as error: %v", workers, err)
		}
		if !res.Report.Canceled {
			t.Fatalf("workers=%d: truncated run not flagged Canceled", workers)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("workers=%d: truncated schedule invalid: %v", workers, err)
		}
		// The solver stops within one iteration of the budget firing.
		if got := res.Report.Iterations; got > budget+1 {
			t.Fatalf("workers=%d: ran %d iterations on a %d budget", workers, got, budget)
		}
		b := scheduleBytes(t, res.Schedule)
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatalf("workers=%d: truncated schedule differs from workers=1", workers)
		}
	}

	// A budget the solve never reaches changes nothing.
	sv := WithStop(atEvent(10000))(NewNosy(nosy.Config{Workers: 1}))
	res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Canceled {
		t.Fatalf("unreached budget flagged the run Canceled")
	}
	if !bytes.Equal(scheduleBytes(t, res.Schedule), scheduleBytes(t, fres.Schedule)) {
		t.Fatalf("unreached budget changed the schedule")
	}
}

// The stop applies to CHITCHAT's commit stream too.
func TestWithStopChitChat(t *testing.T) {
	g, r := quickProblem(t, 250)
	const budget = 10
	sv := WithStop(atEvent(budget))(NewChitChat(chitchat.Config{Workers: 1}))
	res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Canceled {
		t.Fatal("truncated chitchat not flagged Canceled")
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("truncated schedule invalid: %v", err)
	}
	if got := res.Report.Iterations; got > budget {
		t.Fatalf("committed %d times on a %d-commit budget", got, budget)
	}
}

// Caller cancellation is NOT swallowed by the stop layer.
func TestWithStopPropagatesOuterCancel(t *testing.T) {
	g, r := quickProblem(t, 120)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sv := WithStop(atEvent(1000))(NewNosy(nosy.Config{Workers: 1}))
	res, err := sv.Solve(ctx, Problem{Graph: g, Rates: r})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Schedule.Validate() != nil {
		t.Fatal("anytime contract broken under outer cancel")
	}
}

// cutFails emits one progress event and then returns no result, with
// its context's error: a solver that breaks the anytime contract.
type cutFails struct{ sink func(ProgressEvent) }

func (*cutFails) Name() string                           { return "cutfails" }
func (c *cutFails) ChainProgress(fn func(ProgressEvent)) { c.sink = fn }
func (c *cutFails) Solve(ctx context.Context, _ Problem) (*Result, error) {
	c.sink(ProgressEvent{Iteration: 1})
	return nil, ctx.Err()
}

// A solve the stop cut that returned no result failed: its error is not
// swallowed as a completion.
func TestWithStopKeepsFailedSolveError(t *testing.T) {
	sv := WithStop(atEvent(1))(&cutFails{})
	res, err := sv.Solve(context.Background(), Problem{})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("res=%v err=%v, want no result and context.Canceled", res, err)
	}
}

// A predicate that never fires, or a solver without a progress stream,
// passes through untouched.
func TestWithStopNoopCases(t *testing.T) {
	g, r := quickProblem(t, 60)
	for _, sv := range []Solver{
		WithStop(atEvent(1))(baselineSolver{Hybrid}), // no progress stream
		WithStop(func(int, ProgressEvent) bool { return false })( // never fires
			NewNosy(nosy.Config{Workers: 1})),
	} {
		res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r})
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Canceled {
			t.Fatalf("%s: no-op stop flagged Canceled", sv.Name())
		}
	}
}

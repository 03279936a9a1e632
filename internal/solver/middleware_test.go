package solver

import (
	"bytes"
	"context"
	"errors"
	"strings"
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

// tagSolver records the order middleware layers run in.
type tagSolver struct {
	wrapped
	tag   string
	order *[]string
}

func (ts *tagSolver) Solve(ctx context.Context, p Problem) (*Result, error) {
	*ts.order = append(*ts.order, ts.tag)
	return ts.inner.Solve(ctx, p)
}

func tagMiddleware(tag string, order *[]string) Middleware {
	return func(next Solver) Solver {
		return &tagSolver{wrapped: wrapped{next}, tag: tag, order: order}
	}
}

// Chain(s, a, b) must solve through a(b(s)): first middleware outermost.
func TestChainOrder(t *testing.T) {
	g, r := quickProblem(t, 60)
	var order []string
	sv := Chain(baselineSolver{Hybrid},
		tagMiddleware("outer", &order),
		nil, // nil entries are skipped
		tagMiddleware("inner", &order),
	)
	if sv.Name() != Hybrid {
		t.Fatalf("chained Name() = %q, want %q", sv.Name(), Hybrid)
	}
	if _, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"outer", "inner"}; len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("layer order = %v, want %v", order, want)
	}
}

// Wrapping preserves identity, region capability, and the progress
// stream.
func TestMiddlewarePreservesContract(t *testing.T) {
	g, r := quickProblem(t, 60)
	sv := Chain(NewNosy(nosy.Config{Workers: 1}),
		WithRecover(), WithTracing(telemetry.NewTracer(1)), WithStop(atEvent(1000)))
	if sv.Name() != Nosy {
		t.Errorf("Name() through 3 layers = %q, want %q", sv.Name(), Nosy)
	}
	if !SupportsRegions(sv) {
		t.Errorf("SupportsRegions lost through middleware")
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

type panicSolver struct{}

func (panicSolver) Name() string                                    { return "boom" }
func (panicSolver) Solve(context.Context, Problem) (*Result, error) { panic("kaboom") }

func TestWithRecoverConvertsPanic(t *testing.T) {
	g, r := quickProblem(t, 60)
	sv := Chain(panicSolver{}, WithRecover())
	res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r})
	if res != nil {
		t.Fatalf("panicking solve returned a result")
	}
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want wrapped panic", err)
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
		sv := Chain(NewNosy(nosy.Config{Workers: workers}), WithStop(atEvent(budget)))
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
	sv := Chain(NewNosy(nosy.Config{Workers: 1}), WithStop(atEvent(10000)))
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
	sv := Chain(NewChitChat(chitchat.Config{Workers: 1}), WithStop(atEvent(budget)))
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
	sv := Chain(NewNosy(nosy.Config{Workers: 1}), WithStop(atEvent(1000)))
	res, err := sv.Solve(ctx, Problem{Graph: g, Rates: r})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Schedule.Validate() != nil {
		t.Fatal("anytime contract broken under outer cancel")
	}
}

// A predicate that never fires, or a solver without a progress stream,
// passes through untouched.
func TestWithStopNoopCases(t *testing.T) {
	g, r := quickProblem(t, 60)
	for _, sv := range []Solver{
		Chain(baselineSolver{Hybrid}, WithStop(atEvent(1))), // no progress stream
		Chain(NewNosy(nosy.Config{Workers: 1}), // never fires
			WithStop(func(int, ProgressEvent) bool { return false })),
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

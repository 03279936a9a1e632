package solver

import (
	"context"
	"errors"
	"testing"
)

// scriptedSolver fails (nil result, typed error) on solve numbers where
// fail returns true, and otherwise returns an empty success result.
type scriptedSolver struct {
	name   string
	n      int
	fail   func(n int) bool
	region bool
}

var errScripted = errors.New("scripted failure")

func (s *scriptedSolver) Name() string          { return s.name }
func (s *scriptedSolver) SupportsRegions() bool { return s.region }
func (s *scriptedSolver) Solve(ctx context.Context, p Problem) (*Result, error) {
	s.n++
	if s.fail != nil && s.fail(s.n) {
		return nil, errScripted
	}
	return &Result{Report: Report{Solver: s.name}}, nil
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	// Primary fails on solves 1..5, healthy afterwards.
	primary := &scriptedSolver{name: "p", region: true, fail: func(n int) bool { return n <= 5 }}
	fallback := &scriptedSolver{name: "f", region: true}
	b := NewBreaker(primary, fallback, BreakerConfig{Threshold: 2, ProbeEvery: 3})

	if got, want := b.Name(), "breaker(p->f)"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	if !b.SupportsRegions() {
		t.Fatal("region-capable members, breaker denies regions")
	}

	ctx := context.Background()
	// Solves 1 and 2: primary fails; solve 1 surfaces the error (below
	// threshold), solve 2 trips the breaker and falls back.
	if res, err := b.Solve(ctx, Problem{}); res != nil || !errors.Is(err, errScripted) {
		t.Fatalf("solve 1: res=%v err=%v, want surfaced primary failure", res, err)
	}
	res, err := b.Solve(ctx, Problem{})
	if err != nil || res == nil || res.Report.Solver != "f" {
		t.Fatalf("solve 2: res=%+v err=%v, want fallback result", res, err)
	}
	st := b.Stats()
	if !st.Open || st.Trips != 1 || st.Failures != 2 {
		t.Fatalf("after trip: %+v", st)
	}

	// While open, solves run on the fallback; the 3rd open solve is a
	// half-open probe of the (still broken) primary.
	for i := 0; i < 3; i++ {
		res, err := b.Solve(ctx, Problem{})
		if err != nil || res.Report.Solver != "f" {
			t.Fatalf("open solve %d: res=%+v err=%v", i, res, err)
		}
	}
	st = b.Stats()
	if st.Probes != 1 || st.Open != true || st.Closes != 0 {
		t.Fatalf("after open phase: %+v", st)
	}
	if primary.n != 3 { // solves 1, 2, and the failed probe
		t.Fatalf("primary ran %d times, want 3", primary.n)
	}

	// Keep driving solves: probes 4 and 5 still hit the failure window,
	// the next one lands after the primary recovered and closes the
	// breaker.
	for b.Stats().Open {
		if _, err := b.Solve(ctx, Problem{}); err != nil {
			t.Fatalf("open-phase solve errored: %v", err)
		}
	}
	st = b.Stats()
	if st.Closes != 1 {
		t.Fatalf("breaker never closed: %+v", st)
	}
	// Closed again: solves go straight to the healthy primary.
	res, err = b.Solve(ctx, Problem{})
	if err != nil || res.Report.Solver != "p" {
		t.Fatalf("post-recovery solve: res=%+v err=%v", res, err)
	}
}

func TestBreakerIgnoresCallerCancellation(t *testing.T) {
	// A canceled caller context with a nil result is the caller's doing,
	// not the solver's, and must not count against the primary.
	fallback := &scriptedSolver{name: "f", region: true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceledPrimary := solverFunc(func(c context.Context, p Problem) (*Result, error) {
		return nil, context.Canceled
	})
	b2 := NewBreaker(named{canceledPrimary, "cp"}, fallback, BreakerConfig{Threshold: 1})
	if _, err := b2.Solve(ctx, Problem{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := b2.Stats(); st.Open || st.Failures != 0 {
		t.Fatalf("caller cancellation counted as failure: %+v", st)
	}

	// The same (nil, Canceled) outcome under a LIVE caller context is a
	// broken solver and must count.
	if _, err := b2.Solve(context.Background(), Problem{}); err != nil {
		t.Fatalf("tripped breaker should have served fallback: %v", err)
	}
	if st := b2.Stats(); !st.Open || st.Failures != 1 {
		t.Fatalf("live-context nil-result cancel not counted: %+v", st)
	}
}

func TestBreakerRegionCapabilityNeedsBoth(t *testing.T) {
	capable := &scriptedSolver{name: "c", region: true}
	incapable := &scriptedSolver{name: "i", region: false}
	if NewBreaker(capable, incapable, BreakerConfig{}).SupportsRegions() {
		t.Fatal("breaker with region-incapable fallback claims region support")
	}
	if NewBreaker(incapable, capable, BreakerConfig{}).SupportsRegions() {
		t.Fatal("breaker with region-incapable primary claims region support")
	}
}

// solverFunc adapts a function to Solver for tests.
type solverFunc func(context.Context, Problem) (*Result, error)

func (f solverFunc) Name() string { return "func" }
func (f solverFunc) Solve(ctx context.Context, p Problem) (*Result, error) {
	return f(ctx, p)
}

// named overrides a solver's name.
type named struct {
	Solver
	name string
}

func (n named) Name() string { return n.name }

// streamSolver is a scriptedSolver with a progress stream: a solve that
// does not fail emits events progress events and, once its context is
// cut, returns its best-so-far result flagged Canceled.
type streamSolver struct {
	scriptedSolver
	events int
	sinks  []func(ProgressEvent)
}

func (s *streamSolver) ChainProgress(fn func(ProgressEvent)) { s.sinks = append(s.sinks, fn) }

func (s *streamSolver) Solve(ctx context.Context, p Problem) (*Result, error) {
	res, err := s.scriptedSolver.Solve(ctx, p)
	if res == nil {
		return nil, err
	}
	for i := 1; i <= s.events; i++ {
		for _, fn := range s.sinks {
			fn(ProgressEvent{Solver: s.name, Iteration: i})
		}
		res.Report.Iterations = i
		if err := ctx.Err(); err != nil {
			res.Report.Canceled = true
			return res, err
		}
	}
	return res, nil
}

// A stopping rule wrapped around a breaker sees the primary's stream and
// cuts it; once the breaker has tripped it neither sees nor cuts the
// fallback's.
func TestBreakerForwardsProgressToPrimaryOnly(t *testing.T) {
	primary := &streamSolver{scriptedSolver{name: "p", region: true, fail: func(n int) bool { return n == 2 }}, 10, nil}
	fallback := &streamSolver{scriptedSolver{name: "f", region: true}, 10, nil}
	seen := 0
	sv := Chain(NewBreaker(primary, fallback, BreakerConfig{Threshold: 1, ProbeEvery: 100}),
		WithStop(func(n int, _ ProgressEvent) bool { seen++; return n >= 3 }))
	ctx := context.Background()

	res, err := sv.Solve(ctx, Problem{})
	if err != nil || res.Report.Solver != "p" || !res.Report.Canceled || res.Report.Iterations != 3 || seen != 3 {
		t.Fatalf("closed: res=%+v err=%v seen=%d, want the primary cut at its 3rd event", res, err, seen)
	}
	for solve := 2; solve <= 3; solve++ { // 2 trips the breaker, 3 finds it open
		seen = 0
		res, err = sv.Solve(ctx, Problem{})
		if err != nil || res.Report.Solver != "f" || res.Report.Canceled || res.Report.Iterations != 10 || seen != 0 {
			t.Fatalf("solve %d: res=%+v err=%v seen=%d, want the fallback run out, unobserved", solve, res, err, seen)
		}
	}
	if fallback.n != 2 {
		t.Fatalf("fallback ran %d times, want 2", fallback.n)
	}
}

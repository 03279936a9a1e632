package solver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/schedio"
	"piggyback/internal/workload"
)

// quickProblem builds the Quick-scale Flickr-like reference instance.
func quickProblem(t testing.TB, nodes int) (*graph.Graph, *workload.Rates) {
	t.Helper()
	g := graphgen.Social(graphgen.FlickrLike(nodes, 1))
	return g, workload.LogDegree(g, workload.DefaultReadWriteRatio)
}

// scheduleBytes serializes a schedule for byte-identity comparison.
func scheduleBytes(t *testing.T, s *core.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := schedio.Write(&buf, s); err != nil {
		t.Fatalf("serializing schedule: %v", err)
	}
	return buf.Bytes()
}

// TestRegistryHasBuiltins pins the fixed name table: the six built-ins,
// sorted, each built by New under its own name, and an unknown name
// refused with the valid ones listed.
func TestRegistryHasBuiltins(t *testing.T) {
	want := []string{ChitChat, Hybrid, Nosy, PullAll, PushAll, Shard}
	if names := Names(); !slices.Equal(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, w := range want {
		sv, err := New(w, Options{})
		if err != nil {
			t.Fatalf("New(%q): %v", w, err)
		}
		if sv.Name() != w {
			t.Errorf("New(%q) built %q", w, sv.Name())
		}
	}
	_, err := New("no-such-algorithm", Options{})
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("New(unknown) = %v, want ErrUnknownSolver", err)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprint(want)) {
		t.Errorf("unknown-name error %q does not list %v", msg, want)
	}
}

// Names hands out a fresh slice: a caller sorting or editing its copy
// cannot reorder the table for the next caller.
func TestRegistryNamesSorted(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	names[0] = "zeta"
	if again := Names(); again[0] != ChitChat {
		t.Fatalf("editing one Names() result changed the next: %v", again)
	}
}

// TestSolversMatchPreRedesign pins the acceptance criterion: every
// paper solver and baseline produces a byte-identical schedule to its
// pre-redesign facade counterpart on the reference graph.
func TestSolversMatchPreRedesign(t *testing.T) {
	nodes := 400
	if testing.Short() {
		nodes = 250
	}
	g, r := quickProblem(t, nodes)
	legacy := map[string]func() *core.Schedule{
		ChitChat: func() *core.Schedule { return chitchat.Solve(g, r, chitchat.Config{}) },
		Nosy:     func() *core.Schedule { return nosy.Solve(g, r, nosy.Config{}) },
		Hybrid:   func() *core.Schedule { return baseline.Hybrid(g, r) },
		PushAll:  func() *core.Schedule { return baseline.PushAll(g) },
		PullAll:  func() *core.Schedule { return baseline.PullAll(g) },
	}
	for name, old := range legacy {
		t.Run(name, func(t *testing.T) {
			sv, err := New(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Fatalf("invalid schedule: %v", err)
			}
			if got, want := scheduleBytes(t, res.Schedule), scheduleBytes(t, old()); !bytes.Equal(got, want) {
				t.Errorf("schedule differs from pre-redesign %s", name)
			}
			if res.Report.Solver != name {
				t.Errorf("Report.Solver = %q, want %q", res.Report.Solver, name)
			}
			if res.Report.Canceled {
				t.Errorf("uncanceled solve reported Canceled")
			}
			if want := res.Schedule.Cost(r); res.Report.Cost != want {
				t.Errorf("Report.Cost = %v, want %v", res.Report.Cost, want)
			}
		})
	}
}

// TestCancelMidSolve exercises the anytime contract on the iterative
// solvers: cancel from inside the progress stream, then assert prompt
// return (bounded by one iteration past the cancel), a Validate()-clean
// schedule, and errors.Is(err, context.Canceled).
func TestCancelMidSolve(t *testing.T) {
	g, r := quickProblem(t, 250)
	t.Run("nosy", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cancelAt := 1 // cancel as the second round's stats stream
		var events int
		sv, _ := New(Nosy, Options{Progress: func(ev ProgressEvent) {
			events++
			if ev.Iteration == cancelAt {
				cancel()
			}
		}})
		res, err := sv.Solve(ctx, Problem{Graph: g, Rates: r})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res == nil {
			t.Fatal("canceled solve returned nil result")
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("best-so-far schedule invalid: %v", err)
		}
		if !res.Report.Canceled {
			t.Errorf("Report.Canceled = false on canceled solve")
		}
		// Cancellation is checked at the round boundary: the round whose
		// progress event canceled is the last one that runs.
		if got := res.Report.Iterations; got != cancelAt+1 {
			t.Errorf("ran %d iterations, want exactly %d (cancel+1)", got, cancelAt+1)
		}
		if events != cancelAt+1 {
			t.Errorf("saw %d progress events, want %d", events, cancelAt+1)
		}
		// The anytime schedule covers fewer (or equal) edges than the
		// converged run but must not be the trivial hybrid: round 0
		// committed hubs before the cancel.
		if res.Schedule.Counts().Covered == 0 {
			t.Errorf("canceled schedule has no hub coverage; expected round-0 commits retained")
		}
	})
	t.Run("chitchat", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const cancelAt = 25 // commits before canceling
		sv, _ := New(ChitChat, Options{Progress: func(ev ProgressEvent) {
			if ev.Iteration == cancelAt {
				cancel()
			}
		}})
		res, err := sv.Solve(ctx, Problem{Graph: g, Rates: r})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("best-so-far schedule invalid: %v", err)
		}
		// The commit whose event canceled is the last: the greedy loop
		// checks the context before every subsequent commit.
		if got := res.Report.Iterations; got != cancelAt {
			t.Errorf("committed %d times, want exactly %d", got, cancelAt)
		}
		full := chitchat.Solve(g, r, chitchat.Config{})
		if got, want := res.Schedule.Cost(r), full.Cost(r); got < want {
			t.Errorf("truncated greedy cost %v beats converged %v; impossible", got, want)
		}
	})
	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already done before the solve starts
		sv, _ := New(Nosy, Options{})
		res, err := sv.Solve(ctx, Problem{Graph: g, Rates: r})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("zero-iteration schedule invalid: %v", err)
		}
		if res.Report.Iterations != 0 {
			t.Errorf("pre-canceled solve ran %d iterations", res.Report.Iterations)
		}
		// Zero iterations + finalize = the hybrid baseline exactly.
		if got, want := scheduleBytes(t, res.Schedule), scheduleBytes(t, baseline.Hybrid(g, r)); !bytes.Equal(got, want) {
			t.Errorf("pre-canceled schedule is not the hybrid finalization")
		}
	})
}

// TestWorkerInvarianceUnderCancel pins that the worker-count schedule
// invariance survives the new API even when the solve is canceled at a
// deterministic iteration: every worker count stops at the same round
// with the same committed state.
func TestWorkerInvarianceUnderCancel(t *testing.T) {
	g, r := quickProblem(t, 250)
	run := func(workers int) []byte {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sv, _ := New(Nosy, Options{Workers: workers, Progress: func(ev ProgressEvent) {
			if ev.Iteration == 1 {
				cancel()
			}
		}})
		res, err := sv.Solve(ctx, Problem{Graph: g, Rates: r})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("workers=%d: invalid schedule: %v", workers, err)
		}
		return scheduleBytes(t, res.Schedule)
	}
	want := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); !bytes.Equal(got, want) {
			t.Errorf("canceled schedule differs between workers=1 and workers=%d", w)
		}
	}
}

func TestProblemValidation(t *testing.T) {
	g, r := quickProblem(t, 50)
	nv, _ := New(Nosy, Options{})
	for _, tc := range []struct {
		name string
		sv   Solver
		p    Problem
		want error
	}{
		{"nil graph", nv, Problem{Rates: r}, ErrNoGraph},
		{"nil rates", nv, Problem{Graph: g}, ErrNoGraph},
	} {
		res, err := tc.sv.Solve(context.Background(), tc.p)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if res != nil {
			t.Errorf("%s: result should be nil on a rejected problem", tc.name)
		}
	}
}

// TestBadRatesRejected: every built-in refuses rates that do not fit the
// graph — too few for its nodes, or a negative, NaN or +Inf rate — with an
// error wrapping ErrBadRates and no result, instead of indexing past the
// rates or pricing a schedule with them.
func TestBadRatesRejected(t *testing.T) {
	g, _ := quickProblem(t, 100)
	bad := func(prod, cons float64) *workload.Rates {
		r := workload.LogDegree(g, workload.DefaultReadWriteRatio)
		r.Prod[17], r.Cons[63] = prod, cons
		return r
	}
	cases := []struct {
		name string
		r    *workload.Rates
	}{
		{"short", workload.NewUniform(50, 1)},
		{"negative", bad(-1, 1)},
		{"NaN", bad(1, math.NaN())},
		{"+Inf", bad(math.Inf(1), 1)},
	}
	for _, name := range Names() {
		sv, err := New(name, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: tc.r})
			if !errors.Is(err, ErrBadRates) || res != nil {
				t.Errorf("%s, %s rates: result %v, err = %v; want no result and ErrBadRates", name, tc.name, res, err)
			}
		}
	}
}

// TestBuilderTypedError pins the graph builder's typed error: AddEdge
// panics with an error wrapping ErrEdgeOutOfRange, TryAddEdge returns
// it.
func TestBuilderTypedError(t *testing.T) {
	b := graph.NewBuilder(3)
	if err := b.TryAddEdge(0, 5); !errors.Is(err, graph.ErrEdgeOutOfRange) {
		t.Errorf("TryAddEdge = %v, want ErrEdgeOutOfRange", err)
	}
	if err := b.TryAddEdge(0, 1); err != nil {
		t.Errorf("TryAddEdge in range: %v", err)
	}
	defer func() {
		p := recover()
		e, ok := p.(error)
		if !ok || !errors.Is(e, graph.ErrEdgeOutOfRange) {
			t.Errorf("AddEdge panic = %v, want error wrapping ErrEdgeOutOfRange", p)
		}
	}()
	b.AddEdge(-1, 0)
}

// TestProgressStream sanity-checks the event contents for both
// streaming shapes.
func TestProgressStream(t *testing.T) {
	g, r := quickProblem(t, 100)
	var nosyEvents []ProgressEvent
	sv, _ := New(Nosy, Options{Progress: func(ev ProgressEvent) { nosyEvents = append(nosyEvents, ev) }})
	res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r})
	if err != nil {
		t.Fatal(err)
	}
	if len(nosyEvents) != res.Report.Iterations {
		t.Fatalf("%d events for %d iterations", len(nosyEvents), res.Report.Iterations)
	}
	for i, ev := range nosyEvents {
		if ev.Iteration != i {
			t.Errorf("event %d has Iteration %d", i, ev.Iteration)
		}
		if ev.Solver != Nosy {
			t.Errorf("event solver = %q", ev.Solver)
		}
		if ev.Dirty == 0 {
			t.Errorf("event %d reports empty dirty set", i)
		}
		if math.IsNaN(ev.Cost) {
			t.Errorf("event %d has a NaN cost", i)
		}
	}
	var last ProgressEvent
	cc, _ := New(ChitChat, Options{Progress: func(ev ProgressEvent) { last = ev }})
	if _, err := cc.Solve(context.Background(), Problem{Graph: g, Rates: r}); err != nil {
		t.Fatal(err)
	}
	if last.Remaining != 0 {
		t.Errorf("final chitchat event leaves %d remaining", last.Remaining)
	}
	if last.Covered != g.NumEdges() {
		t.Errorf("final chitchat event covered %d of %d edges", last.Covered, g.NumEdges())
	}
}

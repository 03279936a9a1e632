package solver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/densest"
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

func TestRegistryHasBuiltins(t *testing.T) {
	// Algorithms only, and exactly these: "shard" registers itself from
	// its own package, which this test binary does not link.
	names := Default.Names()
	want := []string{ChitChat, Hybrid, Nosy, PullAll, PushAll}
	if !slices.Equal(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, w := range want {
		if _, err := Default.Get(w); err != nil {
			t.Errorf("Get(%q): %v", w, err)
		}
	}
	if _, err := Default.Get("no-such-algorithm"); !errors.Is(err, ErrUnknownSolver) {
		t.Errorf("Get(unknown) = %v, want ErrUnknownSolver", err)
	}
}

func TestRegisterMisusePanics(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Hybrid, func(Options) Solver { return baselineSolver{Hybrid} })
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"empty name", func() { reg.MustRegister("", func(Options) Solver { return baselineSolver{Hybrid} }) }},
		{"nil factory", func() { reg.MustRegister("x", nil) }},
		{"duplicate", func() { reg.MustRegister(Hybrid, func(Options) Solver { return baselineSolver{Hybrid} }) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustRegister %s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// TestSolversMatchPreRedesign pins the acceptance criterion: every
// registered solver produces a byte-identical schedule to its
// pre-redesign facade counterpart on the reference graph.
func TestSolversMatchPreRedesign(t *testing.T) {
	nodes := 400
	if testing.Short() {
		nodes = 250
	}
	g, r := quickProblem(t, nodes)
	legacy := map[string]func() *core.Schedule{
		ChitChat: func() *core.Schedule { return chitchat.Solve(g, r, chitchat.Config{}) },
		Nosy:     func() *core.Schedule { return nosy.Solve(g, r, nosy.Config{}).Schedule },
		Hybrid:   func() *core.Schedule { return baseline.Hybrid(g, r) },
		PushAll:  func() *core.Schedule { return baseline.PushAll(g) },
		PullAll:  func() *core.Schedule { return baseline.PullAll(g) },
	}
	for name, old := range legacy {
		t.Run(name, func(t *testing.T) {
			sv, err := Default.New(name, Options{})
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
		sv := NewNosy(nosy.Config{})
		withProgress(sv, func(ev ProgressEvent) {
			events++
			if ev.Iteration == cancelAt {
				cancel()
			}
		})
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
		sv := NewChitChat(chitchat.Config{})
		withProgress(sv, func(ev ProgressEvent) {
			if ev.Iteration == cancelAt {
				cancel()
			}
		})
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
		sv := NewNosy(nosy.Config{})
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
		sv := NewNosy(nosy.Config{Workers: workers})
		withProgress(sv, func(ev ProgressEvent) {
			if ev.Iteration == 1 {
				cancel()
			}
		})
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

// TestRegionSolve pins the localized re-solve path through the Solver
// interface against the pre-redesign entry points.
func TestRegionSolve(t *testing.T) {
	g, r := quickProblem(t, 250)
	base := chitchat.Solve(g, r, chitchat.Config{})
	seed := graph.NodeID(g.NumNodes() / 2)
	nodes := graph.KHop(g, []graph.NodeID{seed}, 2, 60)
	region := graph.InducedEdgeIDs(g, nodes)
	if len(region) == 0 {
		t.Fatal("empty test region")
	}
	t.Run("nosy", func(t *testing.T) {
		sv := NewNosy(nosy.Config{})
		res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r, Base: base, Region: region})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("patched schedule invalid: %v", err)
		}
		want := nosy.SolveRestricted(g, r, nosy.Config{}, base, region)
		if !bytes.Equal(scheduleBytes(t, res.Schedule), scheduleBytes(t, want.Schedule)) {
			t.Errorf("region schedule differs from nosy.SolveRestricted")
		}
		if res.Report.BoundaryRepairs != want.BoundaryRepairs {
			t.Errorf("BoundaryRepairs = %d, want %d", res.Report.BoundaryRepairs, want.BoundaryRepairs)
		}
	})
	t.Run("chitchat", func(t *testing.T) {
		sv := NewChitChat(chitchat.Config{})
		res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r, Base: base, Region: region})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("patched schedule invalid: %v", err)
		}
		// Reference: the manual extract/solve/splice pipeline over the
		// region's endpoint nodes (== the induced node set for an
		// induced region).
		sub := graph.Induced(g, endpointNodes(g, region))
		patch := chitchat.SolveInduced(sub, r, chitchat.Config{})
		want := base.Clone()
		if _, err := core.ApplyPatch(want, sub, patch, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(scheduleBytes(t, res.Schedule), scheduleBytes(t, want)) {
			t.Errorf("region schedule differs from manual extract+solve+splice")
		}
	})
	t.Run("endpoints", func(t *testing.T) {
		// The cursor walk against a binary search per edge.
		set := map[graph.NodeID]bool{}
		for _, e := range region {
			set[g.EdgeSource(e)], set[g.EdgeTarget(e)] = true, true
		}
		got := endpointNodes(g, region)
		if len(got) != len(set) || !slices.IsSorted(got) {
			t.Fatalf("endpointNodes: %d nodes (sorted %v), want %d", len(got), slices.IsSorted(got), len(set))
		}
		for _, v := range got {
			if !set[v] {
				t.Fatalf("endpointNodes: %d is no endpoint", v)
			}
		}
		// A region in any order is the same region.
		sv := NewChitChat(chitchat.Config{})
		want, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r, Base: base, Region: region})
		if err != nil {
			t.Fatal(err)
		}
		reversed := slices.Clone(region)
		slices.Reverse(reversed)
		res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r, Base: base, Region: reversed})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(scheduleBytes(t, res.Schedule), scheduleBytes(t, want.Schedule)) {
			t.Errorf("reversed region re-solves to a different schedule")
		}
	})
	t.Run("not-induced", func(t *testing.T) {
		// Drop one edge whose endpoints stay in the region through other
		// edges: the induced set of the endpoints then strictly contains
		// the region, which the subgraph re-solver must reject.
		partial := findNonInducedSubset(g, region)
		if partial == nil {
			t.Skip("region has no droppable edge")
		}
		sv := NewChitChat(chitchat.Config{})
		_, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r, Base: base, Region: partial})
		if !errors.Is(err, ErrRegionNotInduced) {
			t.Errorf("err = %v, want ErrRegionNotInduced", err)
		}
	})
}

// findNonInducedSubset drops one region edge both of whose endpoints
// appear in other region edges, producing a non-induced region.
func findNonInducedSubset(g *graph.Graph, region []graph.EdgeID) []graph.EdgeID {
	degree := map[graph.NodeID]int{}
	for _, e := range region {
		degree[g.EdgeSource(e)]++
		degree[g.EdgeTarget(e)]++
	}
	for i, e := range region {
		if degree[g.EdgeSource(e)] > 1 && degree[g.EdgeTarget(e)] > 1 {
			out := append([]graph.EdgeID(nil), region[:i]...)
			return append(out, region[i+1:]...)
		}
	}
	return nil
}

func TestProblemValidation(t *testing.T) {
	g, r := quickProblem(t, 50)
	base := baseline.Hybrid(g, r)
	region := []graph.EdgeID{0}
	for _, tc := range []struct {
		name string
		sv   Solver
		p    Problem
		want error
	}{
		{"nil graph", NewNosy(nosy.Config{}), Problem{Rates: r}, ErrNoGraph},
		{"nil rates", NewNosy(nosy.Config{}), Problem{Graph: g}, ErrNoGraph},
		{"region without base", NewNosy(nosy.Config{}), Problem{Graph: g, Rates: r, Region: region}, ErrNoBase},
		{"baseline region", baselineSolver{Hybrid}, Problem{Graph: g, Rates: r, Base: base, Region: region}, ErrRegionUnsupported},
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

// TestGuardConvertsTypedPanics checks the panic→error boundary: typed
// library panics become returned errors, everything else propagates.
func TestGuardConvertsTypedPanics(t *testing.T) {
	surface := func(p any) (res *Result, err error) {
		defer guard("test", &res, &err)
		res = &Result{}
		panic(p)
	}
	res, err := surface(fmt.Errorf("wrapped: %w", densest.ErrInstanceTooLarge))
	if !errors.Is(err, densest.ErrInstanceTooLarge) || res != nil {
		t.Errorf("instance-too-large panic: res=%v err=%v", res, err)
	}
	res, err = surface(fmt.Errorf("wrapped: %w", graph.ErrEdgeOutOfRange))
	if !errors.Is(err, graph.ErrEdgeOutOfRange) || res != nil {
		t.Errorf("edge-out-of-range panic: res=%v err=%v", res, err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("unrelated panic was swallowed")
			}
		}()
		surface("unrelated")
	}()
}

// TestBuilderTypedError pins the graph-builder error conversion the
// guard relies on: AddEdge panics with an error wrapping
// ErrEdgeOutOfRange, TryAddEdge returns it.
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
	sv := NewNosy(nosy.Config{TraceCosts: true})
	withProgress(sv, func(ev ProgressEvent) { nosyEvents = append(nosyEvents, ev) })
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
		if ev.Cost != ev.Cost { // NaN despite TraceCosts
			t.Errorf("event %d has NaN cost under TraceCosts", i)
		}
	}
	var last ProgressEvent
	cc := NewChitChat(chitchat.Config{})
	withProgress(cc, func(ev ProgressEvent) { last = ev })
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

// TestSupportsRegions pins the capability discovery consumers like the
// online daemon use to fail fast on misconfiguration.
func TestSupportsRegions(t *testing.T) {
	for name, want := range map[string]bool{
		ChitChat: true,
		Nosy:     true,
		Hybrid:   false,
		PushAll:  false,
		PullAll:  false,
	} {
		sv, err := Default.New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := SupportsRegions(sv); got != want {
			t.Errorf("SupportsRegions(%s) = %v, want %v", name, got, want)
		}
	}
}

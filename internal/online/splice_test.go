package online

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/fault"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/solver"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// sleepy holds every solve up by a wall-clock-random 0–50 ms, so that
// how long an attempt runs has nothing to do with the trace.
type sleepy struct {
	solver.Solver
	rng *rand.Rand // seeded from the clock; read on the attempt goroutines, one at a time
}

func (s sleepy) ChainProgress(fn func(solver.ProgressEvent)) { solver.Observe(s.Solver, fn) }

func (s sleepy) Solve(ctx context.Context, p solver.Problem) (*solver.Result, error) {
	time.Sleep(time.Duration(s.rng.Intn(51)) * time.Millisecond)
	return s.Solver.Solve(ctx, p)
}

// traceRun is what must repeat across runs of one trace, and the cut
// patches its solver returned.
type traceRun struct {
	schedule  []byte
	stats     Stats // ResolveWall zeroed: the only timing field
	records   string
	tree      string
	truncated int
}

// runTrace feeds tc through a daemon whose regional CHITCHAT runs on the
// given worker count behind validating, holding the maintained schedule
// valid after every op, those between a start and its splice included. A
// jittered run sleeps in its solves (sleepy) and between ops, so that
// some splices find their solve long done and others wait for it.
func runTrace(t *testing.T, tc stopRuleTrace, workers int, jitter bool) traceRun {
	t.Helper()
	var sv solver.Solver = solver.NewChitChat(chitchat.Config{Workers: workers})
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	if jitter {
		sv = sleepy{sv, rand.New(rand.NewSource(time.Now().UnixNano() + 1))}
	}
	v := &validating{Solver: sv, t: t}
	var ev telemetry.EventLog
	tr := telemetry.NewTracer(7)
	cfg := tc.cfg
	cfg.Regional, cfg.Events, cfg.Tracer = v, &ev, tr
	d, err := New(tc.init(workers), freshRates(tc.g, tc.base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range tc.trace {
		if err := d.Apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("after op %d (attempt in flight: %v): %v", i, d.fl.done != nil, err)
		}
		if jitter {
			time.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
		}
	}
	d.Flush(context.Background())
	if err := d.Validate(); err != nil {
		t.Fatalf("after the flush: %v", err)
	}
	_, liveS := d.Snapshot()
	st := d.Stats()
	st.ResolveWall = 0
	return traceRun{scheduleBytes(t, liveS), st, strings.Join(ev.Attrs("resolve"), "\n"), tr.Tree(), v.truncated}
}

// sameRun fails t where got differs from want.
func sameRun(t *testing.T, name string, got, want traceRun) {
	t.Helper()
	switch {
	case !slices.Equal(got.schedule, want.schedule):
		t.Errorf("%s: schedule bytes differ", name)
	case !reflect.DeepEqual(got.stats, want.stats):
		t.Errorf("%s: stats differ:\n%+v\n%+v", name, got.stats, want.stats)
	case got.records != want.records:
		t.Errorf("%s: decision records differ:\n%s\n---\n%s", name, got.records, want.records)
	case got.tree != want.tree:
		t.Errorf("%s: span trees differ:\n%s\n---\n%s", name, got.tree, want.tree)
	}
}

// The splice point is an op count, never a clock: over the six zoo traces
// and a churn_local-shaped one, solves that take whatever the clock gives
// them, at one solver worker or two, end where an undisturbed run ends —
// schedule bytes, Stats, decision records and span tree.
// TestStopRuleDaemonProperty holds plain runs to the same. The jitter
// sleeps ≈ 25 ms a solve, so the traces are cut to their first 200 ops.
func TestSpliceDeterministic(t *testing.T) {
	for _, tc := range stopRuleTraces(t) {
		tc.trace = tc.trace[:min(len(tc.trace), 200)]
		t.Run(tc.name, func(t *testing.T) {
			want := runTrace(t, tc, 1, false)
			if !strings.Contains(want.records, "lag=8") {
				t.Fatalf("the trace splices nothing: %+v", want.stats)
			}
			for _, workers := range []int{1, 2} {
				sameRun(t, fmt.Sprintf("jittered, workers=%d", workers), runTrace(t, tc, workers, true), want)
			}
		})
	}
}

// sameGraph reports whether two graphs have the same edges.
func sameGraph(a, b *graph.Graph) bool {
	return a.NumNodes() == b.NumNodes() && slices.Equal(a.EdgeList(), b.EdgeList())
}

// costExact holds the daemon's running cost against a fresh pricing of
// its snapshot.
func costExact(t *testing.T, d *Daemon, s *core.Schedule, at string) {
	t.Helper()
	fresh := s.Cost(d.Rates())
	if math.Abs(d.Cost()-fresh) > 1e-9*fresh {
		t.Fatalf("%s: running cost %v, fresh %v", at, d.Cost(), fresh)
	}
}

// What a splice replays is exactly what happened: after every accepted
// splice the live graph is, edge for edge, the one a daemon that never
// re-solves reaches on the same ops, the running cost is the snapshot's
// to 1e-9, and the rescues a replay makes charge no dirt and count no
// rescue — the incumbent booked them when the op first landed.
func TestSpliceReplayIsExact(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(300, 150), 3))
	base := workload.LogDegree(g, 5)
	trace := workload.GenerateChurn(g, base, scaled(1200, 800), workload.ChurnConfig{
		AddFraction: 0.3, RemoveFraction: 0.4, Seed: 3,
	})
	init := chitchat.Solve(g, base, chitchat.Config{Workers: 1})
	newPair := func(cfg Config) (d, ref *Daemon) {
		d, err := New(init, freshRates(g, base), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err = New(init, freshRates(g, base), Config{DriftThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		return d, ref
	}
	apply := func(d *Daemon, i int, op workload.ChurnOp) {
		t.Helper()
		if err := d.Apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	t.Run("at the check boundary", func(t *testing.T) {
		d, ref := newPair(zooDaemon)
		at, spliced := 0, 0
		d.OnSplice = func(liveG *graph.Graph, s *core.Schedule) {
			spliced++
			refG, _ := ref.Snapshot()
			if !sameGraph(liveG, refG) {
				t.Fatalf("op %d: the spliced graph is not the live graph", at)
			}
			costExact(t, d, s, fmt.Sprintf("op %d", at))
		}
		for i, op := range trace {
			at = i
			apply(ref, i, op)
			apply(d, i, op)
		}
		if spliced == 0 {
			t.Fatal("no splice was accepted")
		}
	})

	t.Run("flushed after any lag", func(t *testing.T) {
		cfg := zooDaemon
		cfg.CheckEvery = math.MaxInt // attempts start and end where the test says
		d, ref := newPair(cfg)
		ctx := context.Background()
		accepted, replayedRescues := 0, 0
		for i, lag := 0, 1; i < len(trace); lag = lag%13 + 1 {
			d.charged = true
			d.checkDrift(ctx)
			inFlight := d.fl.done != nil
			rescues := d.Stats().Rescues
			for end := min(i+lag, len(trace)); i < end; i++ {
				apply(ref, i, trace[i])
				apply(d, i, trace[i])
			}
			dirt, st := slices.Clone(d.dirt), d.Stats()
			d.Flush(ctx)
			if !inFlight {
				continue
			}
			if st.Rescues > rescues {
				replayedRescues++
			}
			after := d.Stats()
			if !slices.Equal(d.dirt, dirt) || after.Rescues != st.Rescues {
				t.Fatalf("op %d: the splice charged dirt or counted rescues (%d → %d)", i, st.Rescues, after.Rescues)
			}
			if after.Resolves == st.Resolves {
				continue
			}
			accepted++
			liveG, s := d.Snapshot()
			refG, _ := ref.Snapshot()
			if !sameGraph(liveG, refG) {
				t.Fatalf("op %d: after a splice with lag %d the live graph is not the reference's", i, lag)
			}
			costExact(t, d, s, fmt.Sprintf("op %d", i))
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		if accepted == 0 || replayedRescues == 0 {
			t.Fatalf("%d accepted splices, %d with rescues in their lag: the test proved nothing", accepted, replayedRescues)
		}
	})
}

// What goes wrong in an attempt surfaces at its splice, on the Apply
// goroutine: a panic without a breaker is raised there, through a breaker
// it is a failed attempt, and a solver that never returns is cut by the
// splice op's deadline and books a failure instead of hanging the daemon.
func TestSpliceFailures(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(120, 4))
	base := workload.LogDegree(g, 5)
	trace := workload.GenerateChurn(g, base, 400, workload.ChurnConfig{Seed: 4})
	newDaemon := func(cfg Config) (*Daemon, *telemetry.EventLog) {
		var ev telemetry.EventLog
		cfg.DriftThreshold, cfg.CheckEvery, cfg.BudgetFraction, cfg.Events = 0.02, 8, -1, &ev
		d, err := New(baseline.Hybrid(g, base), freshRates(g, base), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d, &ev
	}
	// untilSplice applies ops until the next one would splice the attempt
	// in flight, and returns the index of that op.
	untilSplice := func(d *Daemon, from int) int {
		t.Helper()
		i := from
		for ; d.fl.done == nil || d.sinceChk < d.cfg.CheckEvery-1; i++ {
			if err := d.Apply(trace[i]); err != nil {
				t.Fatal(err)
			}
		}
		return i
	}

	t.Run("panic without a breaker", func(t *testing.T) {
		d, _ := newDaemon(Config{Regional: solver.Chain(solver.NewChitChat(chitchat.Config{}), fault.SolverPanics(1, 2))})
		i := untilSplice(d, 0)
		raised := func() (p any) {
			defer func() { p = recover() }()
			return d.Apply(trace[i])
		}()
		if s, _ := raised.(string); !strings.Contains(s, "injected panic") {
			t.Fatalf("the splice op raised %v, want the solver's panic", raised)
		}
	})

	t.Run("panic through a breaker", func(t *testing.T) {
		d, ev := newDaemon(Config{
			Regional: solver.Chain(solver.NewChitChat(chitchat.Config{}), fault.SolverPanics(1, 2)),
			Fallback: solver.NewChitChat(chitchat.Config{}),
		})
		if err := d.ApplyTrace(trace); err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if st.SolverErrors != 1 || st.Breaker.Failures != 1 || !strings.Contains(ev.Attrs("resolve")[0], "verdict=failed") {
			t.Fatalf("want the first attempt failed and booked once: %+v %+v", st, *st.Breaker)
		}
		if st.Resolves == 0 {
			t.Fatalf("no attempt after the failure was kept: %+v", st)
		}
	})

	t.Run("a stalled solve and a deadline on the splice op", func(t *testing.T) {
		d, ev := newDaemon(Config{Regional: solver.Chain(solver.NewChitChat(chitchat.Config{}), fault.SolverStalls(1, 2))})
		i := untilSplice(d, 0)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if err := d.ApplyCtx(ctx, trace[i]); err != nil {
			t.Fatalf("the splice op: %v", err)
		}
		if st := d.Stats(); st.SolverErrors != 1 || !strings.Contains(ev.Attrs("resolve")[0], "verdict=failed") {
			t.Fatalf("want the stalled attempt failed: %+v %v", st, ev.Attrs("resolve"))
		}
		if err := d.ApplyTrace(trace[i+1:]); err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st.Resolves == 0 {
			t.Fatalf("the daemon kept nothing after the stall: %+v", st)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

package online

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
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

// The splice point is an op count, never a clock: over the zoo cells, a
// run whose solves take whatever the clock gives them, at two solver
// workers, ends where the observed run ends — schedule bytes, Stats,
// decision records and span tree (zoo_test.go).
func TestSpliceDeterministic(t *testing.T) {
	eachCell(t, false, func(t *testing.T, r *zooResult) {
		if !strings.Contains(r.observed.records, "lag=8") {
			t.Fatalf("the trace splices nothing: %+v", r.observed.stats)
		}
		noFindings(t, r.disturbed, oSplice, oValidate, oLockstep)
		sameEnd(t, r)
	})
}

// sameGraph reports whether two graphs have the same edges.
func sameGraph(a, b *graph.Graph) bool {
	return a.NumNodes() == b.NumNodes() && slices.Equal(a.EdgeList(), b.EdgeList())
}

// What a splice replays is exactly what happened: after every accepted
// splice the live graph is, edge for edge, the one a daemon that never
// re-solves reaches on the same ops, and the running cost is the
// snapshot's to 1e-9 — at the check boundary on every zoo cell's observed
// run, and flushed after lags of 1–13 ops here, where the rescues a replay
// makes must also charge no dirt and count no rescue: the incumbent booked
// them when the op first landed.
func TestSpliceReplayIsExact(t *testing.T) {
	t.Run("at the check boundary", func(t *testing.T) {
		for _, r := range zooReplays() {
			noFindings(t, r.observed, oSplice)
			if r.observed.spliced != r.observed.stats.Resolves || r.observed.spliced == 0 {
				t.Errorf("%s: %d splices checked, %d accepted", r.cell.name, r.observed.spliced, r.observed.stats.Resolves)
			}
		}
	})

	t.Run("flushed after any lag", func(t *testing.T) {
		g := graphgen.Social(graphgen.FlickrLike(scaled(300, 150), 3))
		base := workload.LogDegree(g, 5)
		trace := workload.GenerateChurn(g, base, scaled(1200, 800), workload.ChurnConfig{
			AddFraction: 0.3, RemoveFraction: 0.4, Seed: 3,
		})
		init := chitchat.Solve(g, base, chitchat.Config{Workers: 1})
		cfg := zooDaemon
		cfg.CheckEvery = math.MaxInt // attempts start and end where the test says
		d, err := New(init, freshRates(g, base), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(init, freshRates(g, base), Config{DriftThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		accepted, replayedRescues := 0, 0
		for i, lag := 0, 1; i < len(trace); lag = lag%13 + 1 {
			d.charged = true
			d.checkDrift(ctx)
			inFlight := d.fl.done != nil
			rescues := d.Stats().Rescues
			for end := min(i+lag, len(trace)); i < end; i++ {
				if err := errors.Join(ref.Apply(trace[i]), d.Apply(trace[i])); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
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
			if fresh := s.Cost(d.Rates()); math.Abs(d.Cost()-fresh) > 1e-9*fresh {
				t.Fatalf("op %d: running cost %v, fresh %v", i, d.Cost(), fresh)
			}
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		if accepted == 0 || replayedRescues == 0 {
			t.Fatalf("%d accepted splices, %d with rescues in their lag: the test proved nothing", accepted, replayedRescues)
		}
	})
}

// foreignPatch answers every solve with a valid schedule over a copy of
// the problem's graph, which the daemon cannot splice.
type foreignPatch struct{}

func (foreignPatch) Name() string { return "foreign" }

func (foreignPatch) Solve(_ context.Context, p solver.Problem) (*solver.Result, error) {
	g := graph.FromEdges(p.Graph.NumNodes(), p.Graph.EdgeList())
	return &solver.Result{Schedule: baseline.Hybrid(g, p.Rates)}, nil
}

// What goes wrong in an attempt surfaces at its splice, on the Apply
// goroutine: a panic is raised there, a solver that never returns is cut
// by the splice op's deadline and books a failure instead of hanging the
// daemon, and so does a patch that is not over the region's subgraph.
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
		d, _ := newDaemon(Config{Regional: fault.SolverPanics(1, 2)(solver.NewChitChat(chitchat.Config{}))})
		i := untilSplice(d, 0)
		raised := func() (p any) {
			defer func() { p = recover() }()
			return d.Apply(trace[i])
		}()
		if s, _ := raised.(string); !strings.Contains(s, "injected panic") {
			t.Fatalf("the splice op raised %v, want the solver's panic", raised)
		}
	})

	t.Run("a stalled solve and a deadline on the splice op", func(t *testing.T) {
		d, ev := newDaemon(Config{Regional: fault.SolverStalls(1, 2)(solver.NewChitChat(chitchat.Config{}))})
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

	t.Run("a patch over another graph", func(t *testing.T) {
		d, ev := newDaemon(Config{Regional: foreignPatch{}})
		if err := d.ApplyTrace(trace); err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if st.SolverErrors == 0 || st.Resolves+st.Reverted != 0 || !strings.Contains(ev.Attrs("resolve")[0], "verdict=failed") {
			t.Fatalf("want every attempt failed: %+v %v", st, ev.Attrs("resolve"))
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

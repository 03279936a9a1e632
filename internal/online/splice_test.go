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
	"piggyback/internal/core"
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

// sabotaged misbehaves on the daemon's first solve and hands every later
// one to the daemon's own solver: it panics, or it blocks until the
// solve's context ends and then returns nothing (stall) or passes the
// ended context on (late).
type sabotaged struct {
	solver.Solver
	mode   string // panic, stall or late
	solves int
}

func (s *sabotaged) Solve(ctx context.Context, p solver.Problem) (*solver.Result, error) {
	if s.solves++; s.solves > 1 {
		return s.Solver.Solve(ctx, p)
	}
	switch s.mode {
	case "panic":
		panic("injected panic")
	case "stall":
		<-ctx.Done()
		return nil, ctx.Err()
	}
	<-ctx.Done()
	return s.Solver.Solve(ctx, p)
}

// solveSpans returns the end of every `solve/…` span in a span tree, in
// order.
func solveSpans(tree string) (ends []string) {
	for _, line := range strings.Split(tree, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "solve/") {
			_, end, _ := strings.Cut(line, " -> ")
			ends = append(ends, end)
		}
	}
	return ends
}

// What goes wrong in an attempt surfaces at its splice, on the Apply
// goroutine: a panic is raised there, a solver that never returns is cut
// by the splice op's deadline and books a failure instead of hanging the
// daemon, and so does a patch that is not over the region's subgraph. A
// CHITCHAT solve the deadline cuts is a truncated patch, not a failure,
// and the rule, which did not cut it, does not make it a finish.
func TestSpliceFailures(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(120, 4))
	base := workload.LogDegree(g, 5)
	trace := workload.GenerateChurn(g, base, 400, workload.ChurnConfig{Seed: 4})
	newDaemon := func() (*Daemon, *telemetry.EventLog, *telemetry.Tracer) {
		var ev telemetry.EventLog
		tr := telemetry.NewTracer(1)
		cfg := Config{DriftThreshold: 0.02, CheckEvery: 8, BudgetFraction: -1, Events: &ev, Tracer: tr}
		d, err := New(baseline.Hybrid(g, base), freshRates(g, base), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d, &ev, tr
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
	// spliceByDeadline runs d up to the splice of its first attempt, which
	// a sabotaged solver holds up, makes that splice under a deadline, and
	// returns the splice op's index.
	spliceByDeadline := func(d *Daemon) int {
		t.Helper()
		i := untilSplice(d, 0)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if err := d.ApplyCtx(ctx, trace[i]); err != nil {
			t.Fatalf("the splice op: %v", err)
		}
		return i
	}

	t.Run("panic without a breaker", func(t *testing.T) {
		d, _, _ := newDaemon()
		d.regional = &sabotaged{Solver: d.regional, mode: "panic"}
		i := untilSplice(d, 0)
		raised := func() (p any) {
			defer func() { p = recover() }()
			return d.Apply(trace[i])
		}()
		if s, _ := raised.(string); !strings.Contains(s, "injected panic") {
			t.Fatalf("the splice op raised %v, want the solver's panic", raised)
		}
	})

	// The splice cancels the attempt's own context, not the op's, so the
	// solve sees a cancellation, whatever ended the op.
	t.Run("a stalled solve and a deadline on the splice op", func(t *testing.T) {
		d, ev, tr := newDaemon()
		d.regional = &sabotaged{Solver: d.regional, mode: "stall"}
		i := spliceByDeadline(d)
		if st := d.Stats(); st.SolverErrors != 1 || !strings.Contains(ev.Attrs("resolve")[0], "verdict=failed") {
			t.Fatalf("want the stalled attempt failed: %+v %v", st, ev.Attrs("resolve"))
		}
		if ends := solveSpans(tr.Tree()); len(ends) != 1 || ends[0] != "failed class=canceled" {
			t.Fatalf("solve spans end %q, want one failed class=canceled", ends)
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

	t.Run("a CHITCHAT solve cut by a deadline on the splice op", func(t *testing.T) {
		d, ev, tr := newDaemon()
		d.regional = &sabotaged{Solver: d.regional, mode: "late"}
		spliceByDeadline(d)
		if st := d.Stats(); st.SolverErrors != 0 || !strings.Contains(ev.Attrs("resolve")[0], " stopped=canceled ") {
			t.Fatalf("want the cut attempt booked stopped=canceled: %+v %v", st, ev.Attrs("resolve"))
		}
		if ends := solveSpans(tr.Tree()); len(ends) != 1 || !strings.HasPrefix(ends[0], "ok ") || !strings.HasSuffix(ends[0], " canceled class=canceled") {
			t.Fatalf("solve spans end %q, want one ok … canceled class=canceled", ends)
		}
	})

	t.Run("a patch over another graph", func(t *testing.T) {
		d, ev, _ := newDaemon()
		d.regional = foreignPatch{}
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

// identitySolver hands back d's attempt's incumbent restricted to the
// subgraph it is given — a patch of exactly incumbent quality, so any
// accept the daemon makes with it is attributable to post-processing
// alone. A region edge the incumbent covers through a hub outside the
// region is one a patch over the subgraph cannot express: the patch serves
// it directly, by the hybrid rule, and exterior counts it.
type identitySolver struct {
	d        *Daemon
	exterior int // written on the attempt goroutine
}

func (*identitySolver) Name() string { return "identity" }

func (s *identitySolver) Solve(_ context.Context, p solver.Problem) (*solver.Result, error) {
	// While an attempt is in flight its frozen state and the remembered
	// region's nodes are the ones it started from.
	liveG, liveS := s.d.fl.frozen.Rebase()
	sub := graph.Induced(liveG, s.d.region.nodes)
	if !slices.Equal(sub.G.EdgeList(), p.Graph.EdgeList()) || sub.NumNodes() != p.Graph.NumNodes() {
		return nil, errors.New("identity: the problem is not the attempt's region")
	}
	patch := core.NewSchedule(p.Graph)
	for le, e := range sub.GlobalEdge {
		le := graph.EdgeID(le)
		if liveS.IsPush(e) {
			patch.SetPush(le)
		}
		if liveS.IsPull(e) {
			patch.SetPull(le)
		}
		if liveS.IsCovered(e) {
			if w, ok := sub.Local(liveS.Hub(e)); ok {
				patch.SetCovered(le, w)
			} else {
				s.exterior++
			}
		}
	}
	patch.Finalize(p.Rates)
	return &solver.Result{Schedule: patch, Report: solver.Report{Solver: "identity", Iterations: 1}}, nil
}

// A region edge covered through a hub the region's cap left outside: hub 2
// covers 0→1, and the region around node 1, capped at two nodes, is {0, 1}.
// The identity patch must serve the edge directly, and the spliced schedule
// must pass every patch oracle.
func TestIdentityPatchServesExteriorCoverage(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 2, To: 1}})
	r := &workload.Rates{Prod: []float64{1, 1, 1}, Cons: []float64{1, 1, 1}}
	s := core.NewSchedule(g)
	e01, _ := g.EdgeID(0, 1)
	e02, _ := g.EdgeID(0, 2)
	e21, _ := g.EdgeID(2, 1)
	s.SetPush(e02)
	s.SetPull(e21)
	s.SetCovered(e01, 2)
	id := &identitySolver{}
	d, err := New(s, r, Config{DriftThreshold: 1e-9, CheckEvery: 1, BudgetFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	d.maxRegion = 2
	ob := &patchOracles{f: &findings{by: map[string][]string{}}}
	id.d, d.regional, d.observe = d, id, ob.observe
	if err := d.ApplyTrace([]workload.ChurnOp{{Kind: workload.OpRates, U: 1, Prod: 1, Cons: 3}}); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Resolves+st.Reverted != 1 || id.exterior != 1 {
		t.Fatalf("want one re-solve meeting one exterior-covered edge: %d, stats %+v", id.exterior, st)
	}
	for o, fs := range ob.f.by {
		t.Errorf("%s oracle: %s", o, fs[0])
	}
}

package piggyback

import (
	"context"
	"errors"
	"testing"
	"time"
)

// solve runs sv on the whole of (g, r) and returns its schedule.
func solve(t *testing.T, sv Solver, g *Graph, r *Rates) *Schedule {
	t.Helper()
	res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r})
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

// newSolver is the facade's named solver under default options.
func newSolver(t *testing.T, name string) Solver {
	t.Helper()
	sv, err := NewSolver(name, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// TestPublicAPIEndToEnd walks the README quick-start path through the
// facade: generate, schedule, compare, validate, serve.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := TwitterLikeGraph(300, 42)
	r := LogDegreeRates(g, 5)

	hybrid := Hybrid(g, r)
	var iters int
	nosy, err := NewSolver("nosy", Options{Progress: func(ProgressEvent) { iters++ }})
	if err != nil {
		t.Fatal(err)
	}
	pn := solve(t, nosy, g, r)
	cc := solve(t, newSolver(t, "chitchat"), g, r)

	for name, s := range map[string]*Schedule{"hybrid": hybrid, "pn": pn, "cc": cc} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if iters == 0 {
		t.Fatal("no iterations reported")
	}
	if ImprovementRatio(pn, r) < 1 || ImprovementRatio(cc, r) < 1 {
		t.Fatal("piggybacking schedules should not lose to hybrid")
	}
	if hc := HybridCost(g, r); hc != hybrid.Cost(r) {
		t.Fatalf("HybridCost %v != hybrid schedule cost %v", hc, hybrid.Cost(r))
	}

	// Serve the schedule on the prototype.
	c, err := NewCluster(pn, ClusterOptions{Servers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := MeasureThroughput(c, GenerateTrace(r, 500, 1), 2)
	if res.ReqPerSec <= 0 {
		t.Fatalf("throughput: %+v", res)
	}
	cl := c.NewClient()
	defer cl.Close()
	ev := Event{User: 0, ID: 1, TS: 1 << 40}
	cl.Update(0, ev)
	if got := cl.Query(0); len(got) == 0 || got[0] != ev {
		t.Fatalf("Query(0) = %v, want %v first", got, ev)
	}
}

func TestIncrementalMaintenanceAPI(t *testing.T) {
	g := TwitterLikeGraph(200, 3)
	r := LogDegreeRates(g, 5)
	m := NewMaintainer(solve(t, newSolver(t, "nosy"), g, r), r)
	// Add a missing edge.
	for a := NodeID(0); int(a) < g.NumNodes(); a++ {
		if !g.HasEdge(a, (a+1)%NodeID(g.NumNodes())) && a+1 != NodeID(g.NumNodes()) {
			if err := m.AddEdge(a, a+1); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSamplingAndPartitionAPI(t *testing.T) {
	g := FlickrLikeGraph(300, 9)
	r := LogDegreeRates(g, 5)
	s := RandomWalkSample(g, 1000, 1)
	if s.Graph.NumEdges() < 1000 {
		t.Fatalf("sample too small: %d", s.Graph.NumEdges())
	}
	b := BFSSample(g, 1000, 1)
	if b.Graph.NumEdges() < 1000 {
		t.Fatalf("BFS sample too small: %d", b.Graph.NumEdges())
	}
	hy := Hybrid(g, r)
	a := HashPartition(g.NumNodes(), 16, 0)
	if PlacementCost(hy, r, a) <= 0 {
		t.Fatal("placement cost should be positive")
	}
	one := HashPartition(g.NumNodes(), 1, 0)
	if nt := NormalizedThroughput(hy, r, one); nt < 0.999 || nt > 1.001 {
		t.Fatalf("1-server normalized throughput = %v, want 1", nt)
	}
}

func TestBuilderAPI(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	g := b.Build()
	r := UniformRates(3, 1)
	s := solve(t, newSolver(t, "chitchat"), g, r)
	if s.Cost(r) != 2 {
		t.Fatalf("figure-2 cost = %v, want 2 (hub)", s.Cost(r))
	}
	g2 := GraphFromEdges(3, []Edge{{From: 0, To: 1}})
	if g2.NumEdges() != 1 {
		t.Fatal("GraphFromEdges failed")
	}
}

// TestSolverFacade walks the Solver API through the facade: lookup by
// name, a full solve, cancellation with a valid best-so-far result,
// and the typed error re-exports.
func TestSolverFacade(t *testing.T) {
	g := FlickrLikeGraph(200, 5)
	r := LogDegreeRates(g, 5)

	if got := Solvers(); len(got) != 6 {
		t.Fatalf("Solvers() = %v, want the six built-ins", got)
	}
	if _, err := NewSolver("bogus", Options{}); !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("NewSolver(bogus) err = %v, want ErrUnknownSolver", err)
	}

	var events int
	sv, err := NewSolver("nosy", Options{Progress: func(ProgressEvent) { events++ }})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sv.Solve(context.Background(), Problem{Graph: g, Rates: r})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if events == 0 || res.Report.Iterations != events {
		t.Fatalf("progress events = %d, iterations = %d", events, res.Report.Iterations)
	}

	// Cancellation through the public surface.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = sv.Solve(ctx, Problem{Graph: g, Rates: r})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Schedule.Validate() != nil {
		t.Fatal("canceled solve must return a valid best-so-far schedule")
	}
}

// TestOnlineDaemonCtxAPI exercises the daemon's context surface: a
// canceled context fails fast, and a (generous) deadline on ApplyCtx —
// the wall bound a caller has — changes nothing: the daemon ends on the
// schedule it reaches without one.
func TestOnlineDaemonCtxAPI(t *testing.T) {
	g := FlickrLikeGraph(200, 5)
	r := LogDegreeRates(g, 5)
	sched := solve(t, newSolver(t, "chitchat"), g, r)
	trace := GenerateChurn(g, r, 200, ChurnConfig{Seed: 2})
	run := func(apply func(*OnlineDaemon, ChurnOp) error) *OnlineDaemon {
		rr := &Rates{Prod: append([]float64(nil), r.Prod...), Cons: append([]float64(nil), r.Cons...)}
		d, err := NewOnlineDaemon(sched, rr, OnlineConfig{
			DriftThreshold: 0.02, CheckEvery: 8, BudgetFraction: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range trace {
			if err := apply(d, op); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	plain := run((*OnlineDaemon).Apply)
	d := run(func(d *OnlineDaemon, op ChurnOp) error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		return d.ApplyCtx(ctx, op)
	})
	if st := d.Stats(); st.Resolves+st.Reverted == 0 {
		t.Fatal("the trace triggered no re-solve; the deadline bounded nothing")
	}
	if d.Cost() != plain.Cost() {
		t.Fatalf("a generous deadline moved the final cost: %v vs %v", d.Cost(), plain.Cost())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.ApplyCtx(ctx, trace[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyCtx on canceled ctx = %v, want context.Canceled", err)
	}
}

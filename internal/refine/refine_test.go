package refine

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/workload"
)

func TestRecoversBracketedEdge(t *testing.T) {
	// 0→1 push, 1→2 pull (both pinned by covering 0→2)… build instead a
	// schedule where 0→2 is served directly although the hub path exists
	// and is needed for nothing else — the sweep must recover it.
	g := graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
	})
	r := workload.NewUniform(3, 1)
	s := core.NewSchedule(g)
	up, _ := g.EdgeID(0, 1)
	cross, _ := g.EdgeID(0, 2)
	down, _ := g.EdgeID(1, 2)
	s.SetPush(up)
	s.SetPull(down)
	s.SetPush(cross) // direct service although the hub bracket exists
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	before := s.Cost(r)
	res := Pass(s, r, core.WalkSupports(s))
	if res.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", res.Recovered)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("after refine: %v", err)
	}
	if got := s.Cost(r); got != before-1 {
		t.Fatalf("cost = %v, want %v", got, before-1)
	}
	if !s.IsCovered(cross) || s.Hub(cross) != 1 {
		t.Fatal("edge 0→2 not re-covered through hub 1")
	}
}

func TestDoesNotUnpinSupports(t *testing.T) {
	// Two cross edges covered through the same hub supports; the supports
	// themselves are direct push/pull and must not be cleared.
	g := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
		{From: 3, To: 1}, {From: 3, To: 2},
	})
	r := workload.NewUniform(4, 1)
	s := core.NewSchedule(g)
	e01, _ := g.EdgeID(0, 1)
	e02, _ := g.EdgeID(0, 2)
	e12, _ := g.EdgeID(1, 2)
	e31, _ := g.EdgeID(3, 1)
	e32, _ := g.EdgeID(3, 2)
	s.SetPush(e01)
	s.SetPush(e31)
	s.SetPull(e12)
	s.SetCovered(e02, 1)
	s.SetCovered(e32, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cost := s.Cost(r)
	Pass(s, r, core.WalkSupports(s))
	if err := s.Validate(); err != nil {
		t.Fatalf("after refine: %v", err)
	}
	if got := s.Cost(r); got > cost {
		t.Fatalf("refine increased cost %v → %v", cost, got)
	}
}

// Converged PARALLELNOSY leaves no bracketed edges behind: any direct
// edge with an existing push+pull bracket would have been a zero-cost,
// positive-gain phase-1 candidate, so convergence implies the sweep finds
// nothing. This doubles as a convergence-quality check on the heuristic.
func TestConvergedNosyLeavesNothing(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(600, 7))
	r := workload.LogDegree(g, 5)
	s := nosy.Solve(g, r, nosy.Config{})
	if res := Pass(s, r, core.WalkSupports(s)); res.Recovered != 0 {
		t.Fatalf("converged PARALLELNOSY left %d recoverable edges (saved %.1f)",
			res.Recovered, res.Saved)
	}
}

// A truncated PARALLELNOSY run does leave recoverable edges: the sweep is
// a cheap way to claw back quality when the iteration budget is cut.
func TestImprovesTruncatedNosy(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(800, 7))
	r := workload.LogDegree(g, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancelling after round 2 stops the solve at that round boundary.
	stop := nosy.Config{OnIteration: func(it nosy.IterationStat) {
		if it.Iteration == 1 {
			cancel()
		}
	}}
	s, _ := nosy.SolveCtx(ctx, g, r, stop)
	before := s.Cost(r)
	res := Pass(s, r, core.WalkSupports(s))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	after := s.Cost(r)
	if math.Abs(before-res.Saved-after) > 1e-6 {
		t.Fatalf("bookkeeping mismatch: before %v saved %v after %v", before, res.Saved, after)
	}
	if res.Recovered == 0 {
		t.Fatal("expected recoverable edges after a truncated run")
	}
	t.Logf("recovered %d edges, saved %.1f (%.2f%% of cost)",
		res.Recovered, res.Saved, 100*res.Saved/before)
}

// The hybrid baseline mixes pushes and pulls per edge when production
// and consumption rates are comparable (read/write ≈ 1), so brackets
// exist on clustered graphs; the sweep turns them into free hub coverage.
func TestImprovesHybrid(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(800, 9))
	r := workload.LogDegree(g, 1)
	s := baseline.Hybrid(g, r)
	before := s.Cost(r)
	res := Pass(s, r, core.WalkSupports(s))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Cost(r) > before {
		t.Fatal("refine worsened hybrid")
	}
	t.Logf("hybrid: recovered %d edges, saved %.1f (%.2f%%)",
		res.Recovered, res.Saved, 100*res.Saved/before)
}

// Property: refine preserves validity and never increases cost on random
// valid schedules (hybrid and PARALLELNOSY outputs).
func TestQuickSafety(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		g := graphgen.Social(graphgen.Config{
			Nodes: n, AvgFollows: 3 + rng.Intn(5),
			TriadProb: rng.Float64(), Reciprocity: rng.Float64(), Seed: seed,
		})
		r := workload.LogDegree(g, 0.5+rng.Float64()*10)
		var s *core.Schedule
		if rng.Intn(2) == 0 {
			s = baseline.Hybrid(g, r)
		} else {
			s = nosy.Solve(g, r, nosy.Config{})
		}
		before := s.Cost(r)
		Pass(s, r, core.WalkSupports(s))
		return s.Validate() == nil && s.Cost(r) <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRefinePassChurn prices one pass at the churn_local geometry: a
// PARALLELNOSY schedule over the 120k-edge streamed graph, as a stall of
// the daemon sweeps it — little to recover, every edge to look at.
func BenchmarkRefinePassChurn(b *testing.B) {
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(120_000, 7))
	r := workload.LogDegree(g, 5)
	base := nosy.Solve(g, r, nosy.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := base.Clone()
		b.StartTimer()
		Pass(s, r, core.WalkSupports(s))
	}
}

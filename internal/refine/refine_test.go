package refine

import (
	"math"
	"math/rand"
	"reflect"
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
	res := Run(s, r)
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
	Run(s, r)
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
	s := nosy.Solve(g, r, nosy.Config{}).Schedule
	if res := Run(s, r); res.Recovered != 0 {
		t.Fatalf("converged PARALLELNOSY left %d recoverable edges (saved %.1f)",
			res.Recovered, res.Saved)
	}
}

// A truncated PARALLELNOSY run does leave recoverable edges: the sweep is
// a cheap way to claw back quality when the iteration budget is cut.
func TestImprovesTruncatedNosy(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(800, 7))
	r := workload.LogDegree(g, 5)
	s := nosy.Solve(g, r, nosy.Config{MaxIterations: 2}).Schedule
	before := s.Cost(r)
	res := Run(s, r)
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
	res := Run(s, r)
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
			s = nosy.Solve(g, r, nosy.Config{}).Schedule
		}
		before := s.Cost(r)
		Run(s, r)
		return s.Validate() == nil && s.Cost(r) <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// sameSchedule reports the first edge on which two schedules over one
// graph differ in flags or hub.
func sameSchedule(t *testing.T, got, want *core.Schedule) {
	t.Helper()
	for e := graph.EdgeID(0); int(e) < want.Graph().NumEdges(); e++ {
		if got.IsPush(e) != want.IsPush(e) || got.IsPull(e) != want.IsPull(e) ||
			got.IsCovered(e) != want.IsCovered(e) || got.Hub(e) != want.Hub(e) {
			t.Fatalf("edge %d: pass left push=%v pull=%v hub=%d, reference push=%v pull=%v hub=%d", e,
				got.IsPush(e), got.IsPull(e), got.Hub(e), want.IsPush(e), want.IsPull(e), want.Hub(e))
		}
	}
}

// CheckAgainstReference runs Pass and the reference sweep on clones of s
// and requires the same Result and the same flags and hub on every edge,
// then a second Pass that recovers nothing. It returns what was recovered.
// It takes s's handed-over support table, if any, and checks it too, as
// well as the table Pass ends with, against a fresh walk.
func CheckAgainstReference(t *testing.T, s *core.Schedule, r *workload.Rates) int {
	t.Helper()
	// The table core.ApplyPatch's repair left on s for Pass, when s comes
	// from a region splice, against the walk Pass makes without it.
	if handed, walked := s.TakeSupports(), s.TakeSupports(); !reflect.DeepEqual(handed, walked) {
		t.Fatal("the support table the splice handed over differs from a fresh walk's")
	}
	got, want := s.Clone(), s.Clone()
	res, sup := Pass(got, r)
	if ref := referencePass(want, r); res != ref {
		t.Fatalf("pass returned %+v, reference %+v", res, ref)
	}
	sameSchedule(t, got, want)
	if walked := got.TakeSupports(); !reflect.DeepEqual(sup, walked) {
		t.Fatal("the support table a pass ends with differs from a fresh walk's")
	}
	again, _ := Pass(got, r)
	if again.Recovered != 0 || again.Saved != 0 {
		t.Fatalf("second pass recovered %+v after the first recovered %+v", again, res)
	}
	return res.Recovered
}

// Pass against the sweep it replaced, over random valid schedules: the
// hybrid baseline at push/pull-mixing rates, converged and truncated
// PARALLELNOSY, each also with a random share of its covered edges put
// back to direct service (so candidates, pinned supports and stale list
// entries all occur).
func TestPassMatchesReferenceSweep(t *testing.T) {
	recovered := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphgen.Social(graphgen.Config{
			Nodes: 5 + rng.Intn(120), AvgFollows: 3 + rng.Intn(6),
			TriadProb: rng.Float64(), Reciprocity: rng.Float64(), Seed: seed,
		})
		r := workload.LogDegree(g, 0.5+rng.Float64()*5)
		var s *core.Schedule
		switch rng.Intn(3) {
		case 0:
			s = baseline.Hybrid(g, r)
		case 1:
			s = nosy.Solve(g, r, nosy.Config{}).Schedule
		default:
			s = nosy.Solve(g, r, nosy.Config{MaxIterations: 1 + rng.Intn(2)}).Schedule
		}
		for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
			if s.IsCovered(e) && rng.Intn(3) == 0 {
				s.ClearCovered(e)
				s.FinalizeEdges(r, []graph.EdgeID{e})
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: input invalid: %v", seed, err)
		}
		recovered += CheckAgainstReference(t, s, r)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if recovered == 0 {
		t.Fatal("no schedule had anything to recover; the comparison proved nothing")
	}
}

// BenchmarkRefinePassChurn prices one pass at the churn_local geometry: a
// PARALLELNOSY schedule over the 120k-edge streamed graph, as a stall of
// the daemon sweeps it — little to recover, every edge to look at.
func BenchmarkRefinePassChurn(b *testing.B) {
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(120_000, 7))
	r := workload.LogDegree(g, 5)
	base := nosy.Solve(g, r, nosy.Config{}).Schedule
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := base.Clone()
		b.StartTimer()
		Pass(s, r)
	}
}

package chitchat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/workload"
)

// scaled picks the graph size: full-size runs take minutes under -race,
// so -short (CI, pre-commit) uses smaller graphs that keep every
// qualitative property (hub coverage, hybrid dominance, determinism).
func scaled(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// figure2 builds the paper's running example: Art(0) → Charlie(1) →
// Billie(2), plus the cross edge Art → Billie coverable through Charlie.
func figure2() *graph.Graph {
	return graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
	})
}

func TestFigure2UsesHub(t *testing.T) {
	g := figure2()
	r := workload.NewUniform(3, 1) // rp = rc = 1 everywhere
	s := Solve(g, r, Config{})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Hub schedule: push 0→1, pull 1→2, cover 0→2 → cost 2.
	// Hybrid would pay 3 (one unit per edge).
	if got, want := s.Cost(r), 2.0; got != want {
		t.Fatalf("cost = %v, want %v (hub through Charlie)", got, want)
	}
	cross, _ := g.EdgeID(0, 2)
	if !s.IsCovered(cross) || s.Hub(cross) != 1 {
		t.Fatalf("edge 0→2 not covered through hub 1 (hub=%d)", s.Hub(cross))
	}
}

func TestNeverWorseThanHybrid(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(scaled(400, 200), 3))
	r := workload.LogDegree(g, 5)
	s := Solve(g, r, Config{})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	hy := baseline.HybridCost(g, r)
	if s.Cost(r) > hy+1e-6 {
		t.Fatalf("CHITCHAT cost %v worse than hybrid %v", s.Cost(r), hy)
	}
}

func TestBeatsHybridOnClusteredGraph(t *testing.T) {
	// On a clustered social graph with the reference read/write ratio,
	// piggybacking must yield a real improvement.
	g := graphgen.Social(graphgen.FlickrLike(scaled(600, 300), 7))
	r := workload.LogDegree(g, 5)
	s := Solve(g, r, Config{})
	hy := baseline.HybridCost(g, r)
	if ratio := hy / s.Cost(r); ratio < 1.02 {
		t.Fatalf("improvement ratio = %.3f; expected >2%% gain on clustered graph", ratio)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.FromEdges(0, nil)
	s := Solve(empty, workload.NewUniform(0, 5), Config{})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	single := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	r := workload.NewUniform(2, 5)
	s = Solve(single, r, Config{})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Cost(r) != 1 { // rp=1 < rc=5 → push
		t.Fatalf("single edge cost = %v, want 1", s.Cost(r))
	}
}

func TestDeterministic(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(scaled(300, 200), 11))
	r := workload.LogDegree(g, 5)
	a := Solve(g, r, Config{})
	b := Solve(g, r, Config{})
	if a.Cost(r) != b.Cost(r) {
		t.Fatalf("nondeterministic costs: %v vs %v", a.Cost(r), b.Cost(r))
	}
	for e := 0; e < g.NumEdges(); e++ {
		ee := graph.EdgeID(e)
		if a.IsPush(ee) != b.IsPush(ee) || a.IsPull(ee) != b.IsPull(ee) ||
			a.IsCovered(ee) != b.IsCovered(ee) {
			t.Fatalf("schedules differ at edge %d", e)
		}
	}
}

func TestCrossEdgeBound(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(scaled(300, 200), 5))
	r := workload.LogDegree(g, 5)
	// A tiny bound must still produce a valid schedule, just a worse one.
	tight := Solve(g, r, Config{MaxCrossEdges: 2})
	if err := tight.Validate(); err != nil {
		t.Fatal(err)
	}
	loose := Solve(g, r, Config{})
	if tight.Cost(r) < loose.Cost(r)-1e-9 {
		t.Fatalf("tighter bound should not beat unbounded: %v vs %v",
			tight.Cost(r), loose.Cost(r))
	}
}

// TestCommitMatchesClaimUnderTruncation is the regression test for the
// cross-edge accounting bug: with a binding MaxCrossEdges the oracle used
// to count only the truncated instance while the commit covered every
// uncovered cross-edge, so the greedy ratio disagreed with what the
// schedule actually did. Both are now computed from the same materialized
// element set; every hub commit must cover exactly what it claimed.
func TestCommitMatchesClaimUnderTruncation(t *testing.T) {
	fourProcs(t)
	g := graphgen.Social(graphgen.FlickrLike(scaled(200, 120), 7))
	r := workload.LogDegree(g, 5)
	for _, maxCross := range []int{1, 2, 5, 0 /* default, non-binding */} {
		for _, workers := range seedWorkers {
			commits := 0
			commitObserver = func(w graph.NodeID, claimed, covered int) {
				commits++
				if claimed != covered {
					t.Errorf("maxCross=%d workers=%d hub %d: claimed %d covered %d", maxCross, workers, w, claimed, covered)
				}
			}
			s := Solve(g, r, Config{MaxCrossEdges: maxCross, Workers: workers})
			commitObserver = nil
			if err := s.Validate(); err != nil {
				t.Fatalf("maxCross=%d workers=%d: %v", maxCross, workers, err)
			}
			if commits == 0 {
				t.Fatalf("maxCross=%d workers=%d: no hub commits observed", maxCross, workers)
			}
		}
	}
}

// TestTruncatedCoverageRespectsBudget checks the fixed MaxCrossEdges
// semantics end to end: each hub instance materializes at most b
// cross-edges, so no hub may cover more than b cross-edges in the final
// schedule (support edges are push/pull, not covered).
func TestTruncatedCoverageRespectsBudget(t *testing.T) {
	const budget = 3
	g := graphgen.Social(graphgen.FlickrLike(scaled(200, 120), 9))
	r := workload.LogDegree(g, 5)
	s := Solve(g, r, Config{MaxCrossEdges: budget})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	perHub := make(map[graph.NodeID]int)
	for e := 0; e < g.NumEdges(); e++ {
		if ee := graph.EdgeID(e); s.IsCovered(ee) {
			perHub[s.Hub(ee)]++
		}
	}
	for w, c := range perHub {
		if c > budget {
			t.Fatalf("hub %d covers %d cross-edges, budget %d", w, c, budget)
		}
	}
}

func TestExactOracleSmallGraph(t *testing.T) {
	g := figure2()
	r := workload.NewUniform(3, 1)
	s := Solve(g, r, Config{ExactOracle: true})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Cost(r) != 2 {
		t.Fatalf("exact-oracle cost = %v, want 2", s.Cost(r))
	}
}

func TestHighReadWriteRatioApproachesHybrid(t *testing.T) {
	// With consumption 100× production, pushes are nearly free and the
	// hybrid schedule (all push) is near optimal; CHITCHAT's gain should
	// shrink relative to the reference ratio (Fig. 9's right side).
	g := graphgen.Social(graphgen.FlickrLike(scaled(400, 250), 9))
	rLow := workload.LogDegree(g, 5)
	rHigh := workload.LogDegree(g, 100)
	gainLow := baseline.HybridCost(g, rLow) / Solve(g, rLow, Config{}).Cost(rLow)
	gainHigh := baseline.HybridCost(g, rHigh) / Solve(g, rHigh, Config{}).Cost(rHigh)
	if gainHigh > gainLow {
		t.Fatalf("gain at ratio 100 (%.3f) exceeds gain at ratio 5 (%.3f)", gainHigh, gainLow)
	}
}

// Property: on random graphs with random rates, CHITCHAT is valid and
// never worse than hybrid.
func TestQuickValidAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		var g *graph.Graph
		if rng.Intn(2) == 0 {
			g = graphgen.ErdosRenyi(n, 4*n, seed)
		} else {
			g = graphgen.Social(graphgen.Config{
				Nodes: n, AvgFollows: 3 + rng.Intn(5),
				TriadProb: rng.Float64(), Reciprocity: rng.Float64(), Seed: seed,
			})
		}
		r := workload.LogDegree(g, 0.5+rng.Float64()*20)
		s := Solve(g, r, Config{})
		if s.Validate() != nil {
			return false
		}
		return s.Cost(r) <= baseline.HybridCost(g, r)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// SolveInduced on a region must produce a valid patch over the subgraph
// that splices back into the full schedule without breaking validity.
func TestSolveInducedPatchRoundTrip(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(250, 8))
	r := workload.LogDegree(g, 5)
	full := Solve(g, r, Config{Workers: 1})
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}

	nodes := graph.KHop(g, []graph.NodeID{7, 42}, 2, 100)
	sub := graph.Induced(g, nodes)
	patch := SolveInduced(sub, r, Config{Workers: 1})
	if err := patch.Validate(); err != nil {
		t.Fatalf("patch invalid: %v", err)
	}
	if _, err := core.ApplyPatch(full, sub, patch, r); err != nil {
		t.Fatal(err)
	}
	if err := full.Validate(); err != nil {
		t.Fatalf("spliced schedule invalid: %v", err)
	}
}

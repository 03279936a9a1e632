package nosy

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/workload"
)

func figure2() *graph.Graph {
	return graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
	})
}

// scaled picks the graph size: the full-size convergence tests take
// ~109s combined under -race, so -short (CI, pre-commit) runs
// scaled-down graphs that still take several solver iterations to
// converge — TestConvergence asserts that explicitly.
func scaled(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

func TestFigure2UsesHub(t *testing.T) {
	g := figure2()
	r := workload.NewUniform(3, 1)
	res := Solve(g, r, Config{})
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.Cost(r); got != 2 {
		t.Fatalf("cost = %v, want 2 (hub through node 1)", got)
	}
	cross, _ := g.EdgeID(0, 2)
	if !res.Schedule.IsCovered(cross) || res.Schedule.Hub(cross) != 1 {
		t.Fatalf("edge 0→2 not covered through hub 1")
	}
}

func TestNeverWorseThanHybrid(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(scaled(500, 250), 3))
	r := workload.LogDegree(g, 5)
	res := Solve(g, r, Config{})
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	hy := baseline.HybridCost(g, r)
	if res.Schedule.Cost(r) > hy+1e-6 {
		t.Fatalf("PARALLELNOSY cost %v worse than hybrid %v", res.Schedule.Cost(r), hy)
	}
}

func TestBeatsHybridOnClusteredGraph(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(800, 300), 7))
	r := workload.LogDegree(g, 5)
	res := Solve(g, r, Config{})
	hy := baseline.HybridCost(g, r)
	if ratio := hy / res.Schedule.Cost(r); ratio < 1.05 {
		t.Fatalf("improvement ratio = %.3f; expected real gain on clustered graph", ratio)
	}
}

func TestConvergence(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(scaled(400, 200), 5))
	r := workload.LogDegree(g, 5)
	res := Solve(g, r, Config{})
	if len(res.Iterations) < 2 {
		t.Fatalf("want multi-iteration convergence, got %d iterations", len(res.Iterations))
	}
	last := res.Iterations[len(res.Iterations)-1]
	if last.FullCommits+last.PartialCommits != 0 {
		t.Fatalf("did not converge: last iteration committed %d+%d",
			last.FullCommits, last.PartialCommits)
	}
}

func TestTraceCostsMonotone(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(500, 250), 9))
	r := workload.LogDegree(g, 5)
	res := Solve(g, r, Config{TraceCosts: true})
	prev := baseline.HybridCost(g, r) + 1e-9
	for i, it := range res.Iterations {
		if it.Cost > prev+1e-6 {
			t.Fatalf("iteration %d increased cost: %v → %v", i, prev, it.Cost)
		}
		prev = it.Cost
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(scaled(400, 200), 13))
	r := workload.LogDegree(g, 5)
	ref := Solve(g, r, Config{Workers: 1})
	for _, workers := range []int{2, 4, 8} {
		got := Solve(g, r, Config{Workers: workers})
		if got.Schedule.Cost(r) != ref.Schedule.Cost(r) {
			t.Fatalf("workers=%d cost %v differs from single-worker %v",
				workers, got.Schedule.Cost(r), ref.Schedule.Cost(r))
		}
		for e := 0; e < g.NumEdges(); e++ {
			ee := graph.EdgeID(e)
			if got.Schedule.IsPush(ee) != ref.Schedule.IsPush(ee) ||
				got.Schedule.IsPull(ee) != ref.Schedule.IsPull(ee) ||
				got.Schedule.IsCovered(ee) != ref.Schedule.IsCovered(ee) {
				t.Fatalf("workers=%d schedule differs at edge %d", workers, e)
			}
		}
	}
}

func TestPartialCommitsHelp(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(600, 250), 21))
	r := workload.LogDegree(g, 5)
	with := Solve(g, r, Config{})
	without := Solve(g, r, Config{DisablePartialCommits: true})
	if err := without.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	// Partial commits should not hurt the final cost, and the variant
	// without them must still be valid and no worse than hybrid.
	hy := baseline.HybridCost(g, r)
	if without.Schedule.Cost(r) > hy+1e-6 {
		t.Fatal("no-partial variant worse than hybrid")
	}
	if with.Schedule.Cost(r) > hy+1e-6 {
		t.Fatal("default variant worse than hybrid")
	}
}

func TestMaxIterationsBounds(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(400, 17))
	r := workload.LogDegree(g, 5)
	res := Solve(g, r, Config{MaxIterations: 1})
	if len(res.Iterations) != 1 {
		t.Fatalf("MaxIterations=1 ran %d iterations", len(res.Iterations))
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("bounded run still must finalize to a valid schedule: %v", err)
	}
}

func TestCrossEdgeBoundValid(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(300, 19))
	r := workload.LogDegree(g, 5)
	res := Solve(g, r, Config{MaxCrossEdges: 1})
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Cost(r) > baseline.HybridCost(g, r)+1e-6 {
		t.Fatal("bounded variant worse than hybrid")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil)
	res := Solve(g, workload.NewUniform(0, 5), Config{})
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

// freshEvalReference prices hub edge he with the structural intersection
// recomputed from the graph — the pre-cache EvalCandidate, kept as the
// oracle the memoized path must match forever.
func freshEvalReference(ev *Evaluator, he graph.EdgeID) (Candidate, bool) {
	s := ev.sched
	if s.IsCovered(he) {
		return Candidate{}, false
	}
	w := ev.src[he]
	y := ev.g.EdgeTarget(he)
	xs, xwIDs, xyIDs := ev.g.CommonInEdges(w, y, ev.cfg.MaxCrossEdges, nil, nil, nil)
	if len(xs) == 0 {
		return Candidate{}, false
	}
	c := Candidate{HubEdge: he, W: w, Y: y}
	var saved, cost float64
	for i, x := range xs {
		xw, xy := xwIDs[i], xyIDs[i]
		if s.IsCovered(xw) || s.IsScheduled(xy) {
			continue
		}
		saved += ev.cstar[xy]
		cost += ev.pushCost(xw, x)
		c.Xs = append(c.Xs, x)
		c.XWEdges = append(c.XWEdges, xw)
		c.XYEdges = append(c.XYEdges, xy)
	}
	if len(c.Xs) == 0 {
		return Candidate{}, false
	}
	cost += ev.pullCost(he, y)
	c.Gain = saved - cost
	if c.Gain <= 0 {
		return Candidate{}, false
	}
	return c, true
}

func sameCandidate(a, b Candidate) bool {
	if a.HubEdge != b.HubEdge || a.W != b.W || a.Y != b.Y || a.Gain != b.Gain ||
		len(a.Xs) != len(b.Xs) {
		return false
	}
	for i := range a.Xs {
		if a.Xs[i] != b.Xs[i] || a.XWEdges[i] != b.XWEdges[i] || a.XYEdges[i] != b.XYEdges[i] {
			return false
		}
	}
	return true
}

// Property pinning the structural cache: on random graphs, under
// arbitrary interleavings of hub commits and direct schedule writes, a
// cached-candidate re-pricing is exactly a fresh EvalCandidate — same
// producers in the same order, bit-identical gain. The first pass over
// the edges computes and stores every intersection, later passes read
// the stored ones.
func TestStructCacheRepriceMatchesFresh(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(50)
		g := graphgen.Social(graphgen.Config{
			Nodes: n, AvgFollows: 3 + rng.Intn(5),
			TriadProb: rng.Float64(), Reciprocity: rng.Float64(), Seed: seed,
		})
		if g.NumEdges() == 0 {
			return true
		}
		r := workload.LogDegree(g, 0.5+rng.Float64()*10)
		ev := NewEvaluator(g, r, Config{Workers: 1})
		for round := 0; round < 8; round++ {
			for e := 0; e < g.NumEdges(); e++ {
				he := graph.EdgeID(e)
				got, okGot := ev.EvalCandidate(he)
				want, okWant := freshEvalReference(ev, he)
				if okGot != okWant || (okGot && !sameCandidate(got, want)) {
					return false
				}
			}
			// Mutate the schedule: commit a random surviving candidate in
			// full, plus a couple of direct push/pull writes.
			var cands []Candidate
			for e := 0; e < g.NumEdges(); e++ {
				if c, ok := ev.EvalCandidate(graph.EdgeID(e)); ok {
					cands = append(cands, c)
				}
			}
			if len(cands) > 0 {
				c := cands[rng.Intn(len(cands))]
				keep := make([]int32, len(c.Xs))
				for i := range keep {
					keep[i] = int32(i)
				}
				ev.Apply(&c, keep)
			}
			for k := 0; k < 2; k++ {
				e := graph.EdgeID(rng.Intn(g.NumEdges()))
				if rng.Intn(2) == 0 {
					ev.Schedule().SetPush(e)
				} else {
					ev.Schedule().SetPull(e)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestStructCacheComputedOnce: after a full solve the cache holds one
// record per hub edge (round 0 evaluates every edge), each span stored
// once, with entries summing to the MaxCrossEdges-capped intersections
// recomputed from the graph; and the arena is no larger than what it
// stores plus one partly filled chunk and, for every other chunk, a tail
// shorter than the entry that retired it. Round 0 fans out at Workers 2
// here, so -race also sees concurrent first evaluations.
func TestStructCacheComputedOnce(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(400, 200), 11))
	r := workload.LogDegree(g, 5)
	cfg := Config{Workers: 2}
	st := newState(NewEvaluator(g, r, cfg), cfg)
	if _, err := st.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ev := st.ev
	stored, want, largest := 0, 0, 0
	chunks := map[*structChunk]bool{}
	for e, rec := range ev.structs.recs {
		if rec.chunk == nil {
			t.Fatalf("hub edge %d has no record", e)
		}
		chunks[rec.chunk] = true
		stored += int(rec.n)
		largest = max(largest, int(rec.n))
		xs, _, _ := g.CommonInEdges(ev.src[e], g.EdgeTarget(graph.EdgeID(e)), ev.cfg.MaxCrossEdges, nil, nil, nil)
		want += len(xs)
	}
	if stored != want {
		t.Fatalf("records hold %d entries, the intersections have %d", stored, want)
	}
	used, capacity := 0, 0
	for k := range chunks {
		used += k.used
		capacity += len(k.xs)
	}
	if used != stored {
		t.Fatalf("chunks hold %d entries, records %d: an intersection was stored twice", used, stored)
	}
	if slack := capacity - stored; slack > chunkEntries+(len(chunks)-1)*(largest-1) {
		t.Fatalf("%d chunks hold %d entries in %d slots (largest entry %d)", len(chunks), stored, capacity, largest)
	}
}

// TestLockTableResetBetweenIterations is the regression test for the
// partial lock reset: after every iteration the lock table must be
// all-unclaimed — the touched-word reset may not leave a stale owner from
// the round's bids, or the next round's decide phase could read a
// phantom grant.
func TestLockTableResetBetweenIterations(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(300, 150), 9))
	r := workload.LogDegree(g, 5)
	for _, workers := range []int{1, 3} {
		cfg := Config{Workers: workers}
		st := newState(NewEvaluator(g, r, cfg), cfg)
		committed := 0
		for it := 0; it < 50; it++ {
			stat := st.iterate()
			for e, lw := range st.locks {
				if lw.owner != -1 || lw.gain != 0 {
					t.Fatalf("workers=%d iteration %d: stale lock word at edge %d: %+v",
						workers, it, e, lw)
				}
			}
			committed += stat.FullCommits + stat.PartialCommits
			if stat.FullCommits+stat.PartialCommits == 0 {
				break
			}
		}
		if committed == 0 {
			t.Fatal("solver committed nothing; lock table never exercised")
		}
	}
}

// Property: valid schedules, never worse than hybrid, on random graphs
// and rates.
func TestQuickValidAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(60)
		var g *graph.Graph
		if rng.Intn(2) == 0 {
			g = graphgen.ErdosRenyi(n, 5*n, seed)
		} else {
			g = graphgen.Social(graphgen.Config{
				Nodes: n, AvgFollows: 3 + rng.Intn(6),
				TriadProb: rng.Float64(), Reciprocity: rng.Float64(), Seed: seed,
			})
		}
		r := workload.LogDegree(g, 0.5+rng.Float64()*20)
		res := Solve(g, r, Config{Workers: 1 + rng.Intn(4)})
		if res.Schedule.Validate() != nil {
			return false
		}
		return res.Schedule.Cost(r) <= baseline.HybridCost(g, r)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// schedulesEqual compares two schedules edge by edge (flags and hub).
func schedulesEqual(a, b *core.Schedule, m int) bool {
	for e := 0; e < m; e++ {
		ee := graph.EdgeID(e)
		if a.IsPush(ee) != b.IsPush(ee) || a.IsPull(ee) != b.IsPull(ee) ||
			a.IsCovered(ee) != b.IsCovered(ee) || a.Hub(ee) != b.Hub(ee) {
			return false
		}
	}
	return true
}

package nosy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := res.Cost(r); got != 2 {
		t.Fatalf("cost = %v, want 2 (hub through node 1)", got)
	}
	cross, _ := g.EdgeID(0, 2)
	if !res.IsCovered(cross) || res.Hub(cross) != 1 {
		t.Fatalf("edge 0→2 not covered through hub 1")
	}
}

func TestNeverWorseThanHybrid(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(scaled(500, 250), 3))
	r := workload.LogDegree(g, 5)
	res := Solve(g, r, Config{})
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	hy := baseline.HybridCost(g, r)
	if res.Cost(r) > hy+1e-6 {
		t.Fatalf("PARALLELNOSY cost %v worse than hybrid %v", res.Cost(r), hy)
	}
}

func TestBeatsHybridOnClusteredGraph(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(800, 300), 7))
	r := workload.LogDegree(g, 5)
	res := Solve(g, r, Config{})
	hy := baseline.HybridCost(g, r)
	if ratio := hy / res.Cost(r); ratio < 1.05 {
		t.Fatalf("improvement ratio = %.3f; expected real gain on clustered graph", ratio)
	}
}

func TestConvergence(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(scaled(400, 200), 5))
	r := workload.LogDegree(g, 5)
	_, rounds := solveTraced(g, r, Config{})
	if len(rounds) < 2 {
		t.Fatalf("want multi-iteration convergence, got %d iterations", len(rounds))
	}
	last := rounds[len(rounds)-1]
	if last.FullCommits+last.PartialCommits != 0 {
		t.Fatalf("did not converge: last iteration committed %d+%d",
			last.FullCommits, last.PartialCommits)
	}
}

func TestTraceCostsMonotone(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(500, 250), 9))
	r := workload.LogDegree(g, 5)
	_, rounds := solveTraced(g, r, Config{})
	prev := baseline.HybridCost(g, r) + 1e-9
	for i, it := range rounds {
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
		if got.Cost(r) != ref.Cost(r) {
			t.Fatalf("workers=%d cost %v differs from single-worker %v",
				workers, got.Cost(r), ref.Cost(r))
		}
		for e := 0; e < g.NumEdges(); e++ {
			ee := graph.EdgeID(e)
			if got.IsPush(ee) != ref.IsPush(ee) ||
				got.IsPull(ee) != ref.IsPull(ee) ||
				got.IsCovered(ee) != ref.IsCovered(ee) {
				t.Fatalf("workers=%d schedule differs at edge %d", workers, e)
			}
		}
	}
}

// solveTraced is Solve, with every round's IterationStat collected from
// OnIteration.
func solveTraced(g *graph.Graph, r *workload.Rates, cfg Config) (*core.Schedule, []IterationStat) {
	var rounds []IterationStat
	cfg.OnIteration = func(it IterationStat) { rounds = append(rounds, it) }
	return Solve(g, r, cfg), rounds
}

// solveRounds runs at most k rounds: cancelling the context from
// OnIteration stops SolveCtx at the next round boundary, where it
// finalizes the rounds committed so far. It returns how many ran.
func solveRounds(g *graph.Graph, r *workload.Rates, cfg Config, k int) (*core.Schedule, int, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	cfg.OnIteration = func(it IterationStat) {
		if ran++; ran == k {
			cancel()
		}
	}
	s, err := SolveCtx(ctx, g, r, cfg)
	return s, ran, err
}

func TestCancelFromOnIterationStopsAtRoundBoundary(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(400, 17))
	r := workload.LogDegree(g, 5)
	res, ran, err := solveRounds(g, r, Config{}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 1 {
		t.Fatalf("cancelled after round 1 but ran %d rounds", ran)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("bounded run still must finalize to a valid schedule: %v", err)
	}
}

func TestCrossEdgeBoundValid(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(300, 19))
	r := workload.LogDegree(g, 5)
	res := Solve(g, r, Config{MaxCrossEdges: 1})
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Cost(r) > baseline.HybridCost(g, r)+1e-6 {
		t.Fatal("bounded variant worse than hybrid")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil)
	res := Solve(g, workload.NewUniform(0, 5), Config{})
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

// producers is a hub edge's producer list: x, x → w and x → y per index.
type producers struct {
	xs     []graph.NodeID
	xw, xy []graph.EdgeID
}

func (p producers) equal(xs []graph.NodeID, xw, xy []graph.EdgeID) bool {
	return slices.Equal(p.xs, xs) && slices.Equal(p.xw, xw) && slices.Equal(p.xy, xy)
}

// filtered returns the producers of (xs, xw, xy) that pass phase 1's
// filter under the current flags, in order.
func filtered(ev *Evaluator, xs []graph.NodeID, xw, xy []graph.EdgeID) producers {
	var p producers
	for i, x := range xs {
		if ev.sched.IsCovered(xw[i]) || ev.sched.IsScheduled(xy[i]) {
			continue
		}
		p.xs, p.xw, p.xy = append(p.xs, x), append(p.xw, xw[i]), append(p.xy, xy[i])
	}
	return p
}

// crossBound is the cross-edge bound an evaluator built under cfg uses.
func crossBound(cfg Config) int {
	if cfg.MaxCrossEdges == 0 {
		return DefaultMaxCrossEdges
	}
	return cfg.MaxCrossEdges
}

// intersection is hub edge he's structural producer list recomputed from
// the graph, under the bound mx: what a never-compacted evaluation
// filters. It depends on the graph alone, so it can be computed once per
// edge.
func intersection(ev *Evaluator, he graph.EdgeID, mx int) producers {
	xs, xw, xy := ev.g.CommonInEdges(ev.src[he], ev.g.EdgeTarget(he), mx, nil, nil, nil)
	return producers{xs, xw, xy}
}

// freshEvalReference prices hub edge he from its intersection ix, never
// compacted — the pre-cache evaluation, kept as the oracle the
// compacting one must match forever. It returns the filtered producers
// and the gain of an uncovered hub edge, and whether that is a
// candidate.
func freshEvalReference(ev *Evaluator, he graph.EdgeID, ix producers) (producers, float64, bool) {
	if ev.sched.IsCovered(he) {
		return producers{}, 0, false
	}
	y := ev.g.EdgeTarget(he)
	p := filtered(ev, ix.xs, ix.xw, ix.xy)
	if len(p.xs) == 0 {
		return p, 0, false
	}
	var saved, cost float64
	for i, x := range p.xs {
		saved += ev.cstar[p.xy[i]]
		cost += ev.pushCost(p.xw[i], x)
	}
	cost += ev.pullCost(he, y)
	gain := saved - cost
	return p, gain, gain > 0
}

// slotMatchesFresh compares hub edge he's compacted span, candidacy and
// gain bits with freshEvalReference on its intersection ix. An uncovered
// hub edge's span must be the fresh producer list whether or not it is a
// candidate; a covered one's is never compacted again and is not
// compared.
func slotMatchesFresh(ev *Evaluator, he graph.EdgeID, ix producers, isCand bool, gain float64) error {
	want, wantGain, wantCand := freshEvalReference(ev, he, ix)
	if isCand != wantCand {
		return fmt.Errorf("hub edge %d: candidacy %v, fresh %v", he, isCand, wantCand)
	}
	if isCand && gain != wantGain {
		return fmt.Errorf("hub edge %d: gain %v, fresh %v", he, gain, wantGain)
	}
	if xs, xw, xy := ev.structs.get(he); !ev.sched.IsCovered(he) && !want.equal(xs, xw, xy) {
		return fmt.Errorf("hub edge %d: span %v %v %v, fresh %+v", he, xs, xw, xy, want)
	}
	return nil
}

// Property pinning the compacted spans: on random graphs, under arbitrary
// interleavings of hub commits and direct schedule writes, evaluating a
// hub edge leaves its span equal to the fresh, never-compacted filter of
// its intersection — same producers in the same order — and returns the
// fresh candidacy and bit-identical gain. Every pass evaluates every hub
// edge, so later passes walk spans earlier ones compacted.
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
			var cands []graph.EdgeID
			for e := 0; e < g.NumEdges(); e++ {
				he := graph.EdgeID(e)
				gain, ok := ev.eval(he)
				if err := slotMatchesFresh(ev, he, intersection(ev, he, DefaultMaxCrossEdges), ok, gain); err != nil {
					t.Logf("seed %d round %d: %v", seed, round, err)
					return false
				}
				if ok {
					cands = append(cands, he)
				}
			}
			// Mutate the schedule: commit a random candidate in full, plus
			// a couple of direct push/pull writes.
			if len(cands) > 0 {
				he := cands[rng.Intn(len(cands))]
				xs, _, _ := ev.structs.get(he)
				keep := make([]int32, len(xs))
				for i := range keep {
					keep[i] = int32(i)
				}
				ev.Apply(he, keep)
			}
			for k := 0; k < 2; k++ {
				e := graph.EdgeID(rng.Intn(g.NumEdges()))
				if rng.Intn(2) == 0 {
					ev.sched.SetPush(e)
				} else {
					ev.sched.SetPull(e)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestStructCacheComputedOnce: the cache NewEvaluator builds holds one
// record per hub edge, each equal before round 0 to the intersection
// CommonInEdges recomputes from the graph (uncapped, and capped at 4,
// which truncates many), and each span stored once: the chunks hold
// exactly the entries the records name, and a full solve stores nothing
// more — every record keeps its chunk and start, and compaction only
// shortens it. The arena is no larger than what it stores plus one partly
// filled chunk per worker and, for every other chunk, a tail shorter than
// the entry that retired it. The build fans out at Workers 2 here, so
// -race also sees concurrent workers.
func TestStructCacheComputedOnce(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(400, 200), 11))
	r := workload.LogDegree(g, 5)
	for _, cfg := range []Config{{Workers: 2}, {Workers: 2, MaxCrossEdges: 4}} {
		ev := NewEvaluator(g, r, cfg)
		stored, largest := 0, 0
		chunks := map[*structChunk]bool{}
		for e, rec := range ev.structs.recs {
			if rec.chunk == nil {
				t.Fatalf("mx%d: hub edge %d has no record", cfg.MaxCrossEdges, e)
			}
			chunks[rec.chunk] = true
			stored += int(rec.n)
			largest = max(largest, int(rec.n))
			xs, xw, xy := ev.structs.get(graph.EdgeID(e))
			wantXs, wantXW, wantXY := g.CommonInEdges(ev.src[e], g.EdgeTarget(graph.EdgeID(e)), crossBound(cfg), nil, nil, nil)
			if !slices.Equal(xs, wantXs) || !slices.Equal(xw, wantXW) || !slices.Equal(xy, wantXY) {
				t.Fatalf("mx%d: hub edge %d: stored %v %v %v, CommonInEdges %v %v %v",
					cfg.MaxCrossEdges, e, xs, xw, xy, wantXs, wantXW, wantXY)
			}
		}
		used := func() int {
			n := 0
			for k := range chunks {
				n += k.used
			}
			return n
		}
		if n := used(); n != stored {
			t.Fatalf("mx%d: chunks hold %d entries, records %d: an intersection was stored twice", cfg.MaxCrossEdges, n, stored)
		}
		capacity := 0
		for k := range chunks {
			capacity += len(k.xs)
		}
		if slack := capacity - stored; slack > cfg.Workers*chunkEntries+(len(chunks)-1)*(largest-1) {
			t.Fatalf("mx%d: %d chunks hold %d entries in %d slots (largest entry %d)", cfg.MaxCrossEdges, len(chunks), stored, capacity, largest)
		}
		built := slices.Clone(ev.structs.recs)
		st := newState(ev, cfg)
		if err := st.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		for e, rec := range ev.structs.recs {
			if b := built[e]; rec.chunk != b.chunk || rec.start != b.start || rec.n > b.n {
				t.Fatalf("mx%d: hub edge %d: record %+v after the solve, %+v before", cfg.MaxCrossEdges, e, rec, b)
			}
		}
		if n := used(); n != stored {
			t.Fatalf("mx%d: after the solve chunks hold %d entries, records built %d", cfg.MaxCrossEdges, n, stored)
		}
	}
}

// TestLockTableResetBetweenIterations: after every iteration every lock
// word is 0, the unclaimed word — a stale bid left by the round could
// read as a phantom grant in the next round's decide phase.
func TestLockTableResetBetweenIterations(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(300, 150), 9))
	r := workload.LogDegree(g, 5)
	for _, workers := range []int{1, 3} {
		cfg := Config{Workers: workers}
		st := newState(NewEvaluator(g, r, cfg), cfg)
		committed := 0
		for it := 0; it < 50; it++ {
			stat := st.iterate()
			for e, w := range st.locks {
				if w != 0 {
					t.Fatalf("workers=%d iteration %d: stale lock word %#x at edge %d",
						workers, it, w, e)
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

// TestLockWordTieBreak: the packed lock word orders bids by float32 gain,
// so bids whose gains round to the same float32 but differ as float64
// must still go to the larger exact gain, and exactly equal gains to the
// lowest hub edge, whatever the bid order. Each case holds a winner the
// word alone would get wrong.
func TestLockWordTieBreak(t *testing.T) {
	near := 1 + 0x1p-40 // rounds to float32 1, as 1 does
	if float32(near) != float32(1) {
		t.Fatal("the near gain must share float32 1's key")
	}
	type bid struct {
		he   graph.EdgeID
		gain float64
	}
	cases := []struct {
		name string
		bids []bid
		want graph.EdgeID
	}{
		{"larger exact gain, higher hub edge", []bid{{3, 1}, {5, near}}, 5},
		{"equal gains, lowest hub edge", []bid{{7, near}, {5, near}}, 5},
		{"three on one key", []bid{{2, 1}, {9, near}, {6, near}, {4, 1}}, 6},
		{"distinct keys, higher word", []bid{{3, near}, {8, 2}}, 8},
	}
	for _, tc := range cases {
		for _, reverse := range []bool{false, true} {
			bids := slices.Clone(tc.bids)
			if reverse {
				slices.Reverse(bids)
			}
			st := &state{locks: make([]uint64, 10), gain: make([]float64, 10)}
			for _, b := range bids {
				st.gain[b.he] = b.gain
			}
			// Every candidate bids on lock 0; its own hub edge is a lock
			// only it bids on.
			for _, b := range bids {
				st.bid(0, lockWord(st.gain[b.he], b.he), st.gain[b.he])
			}
			if got := lockOwner(st.locks[0]); got != tc.want {
				t.Errorf("%s (reverse %v): lock held by hub edge %d, want %d", tc.name, reverse, got, tc.want)
			}
			for _, b := range bids {
				lg := lockGranter{locks: st.locks, word: lockWord(st.gain[b.he], b.he)}
				if lg.granted(0) != (b.he == tc.want) {
					t.Errorf("%s (reverse %v): granted(0) for hub edge %d is %v", tc.name, reverse, b.he, lg.granted(0))
				}
			}
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
		if res.Validate() != nil {
			return false
		}
		return res.Cost(r) <= baseline.HybridCost(g, r)+1e-6
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

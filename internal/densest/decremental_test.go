package densest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// randomWeight draws a node weight: zero (already paid) with probability
// 1/paidOneIn, otherwise continuous — or, when ties is set, from {1, 2, 4}
// so that equal deg/weight ratios are common and the id tie-break decides
// the peel order.
func randomWeight(rng *rand.Rand, paidOneIn int, ties bool) float64 {
	switch {
	case rng.Intn(paidOneIn) == 0:
		return 0
	case ties:
		return float64(int(1) << rng.Intn(3))
	default:
		return 0.1 + rng.Float64()*10
	}
}

// randomInstance builds a random weighted multigraph instance.
func randomInstance(rng *rand.Rand) Instance {
	n := 2 + rng.Intn(30)
	m := rng.Intn(4 * n)
	inst := Instance{N: n, Weight: make([]float64, n)}
	ties := rng.Intn(2) == 0
	for u := range inst.Weight {
		inst.Weight[u] = randomWeight(rng, 5, ties)
	}
	for i := 0; i < m; i++ {
		a := int32(rng.Intn(n))
		b := int32(rng.Intn(n))
		if a == b {
			continue
		}
		inst.Edges = append(inst.Edges, [2]int32{a, b})
	}
	return inst
}

// hubInstance builds a CHITCHAT-shaped instance: nx producers and ny
// consumers each tied to a weightless hub vertex by a support element,
// plus up to cross producer→consumer elements; about a third of the
// supports are already paid.
func hubInstance(rng *rand.Rand, nx, ny, cross int) Instance {
	hub := int32(nx + ny)
	inst := Instance{N: nx + ny + 1, Weight: make([]float64, nx+ny+1)}
	ties := rng.Intn(2) == 0
	for u := int32(0); u < hub; u++ {
		inst.Weight[u] = randomWeight(rng, 3, ties)
		inst.Edges = append(inst.Edges, [2]int32{u, hub})
	}
	for i := 0; i < cross; i++ {
		inst.Edges = append(inst.Edges, [2]int32{int32(rng.Intn(nx)), int32(nx + rng.Intn(ny))})
	}
	return inst
}

// filtered returns the reference-peel view of d's current state: same node
// set and weights, only the live edges.
func filtered(d *Decremental) Instance {
	inst := Instance{N: d.N(), Weight: make([]float64, d.N())}
	for u := 0; u < d.N(); u++ {
		inst.Weight[u] = d.Weight(u)
	}
	for ei := 0; ei < d.NumEdges(); ei++ {
		if d.EdgeAlive(ei) {
			a, b := d.Edge(ei)
			inst.Edges = append(inst.Edges, [2]int32{a, b})
		}
	}
	return inst
}

// sameResult compares two oracle outputs bit for bit: member order,
// edge count and the float64 weight pattern.
func sameResult(a, b Result) bool {
	return a.EdgeCnt == b.EdgeCnt &&
		math.Float64bits(a.Weight) == math.Float64bits(b.Weight) &&
		reflect.DeepEqual(a.Members, b.Members)
}

// checkAgainstReference solves d with the kernel and the live
// sub-instance with referencePeel and reports the first difference.
func checkAgainstReference(d *Decremental, sc *Scratch) error {
	got := d.Solve(sc)
	want := referencePeel(filtered(d))
	if !sameResult(got, want) {
		return fmt.Errorf("kernel %+v, reference %+v", got, want)
	}
	return nil
}

// driveToEmpty removes every element of d in random order, zeroing
// weights and compacting at random points on the way, and checks the
// kernel against the reference after every mutation. Removing everything
// crosses the compaction threshold about log2(m) times and ends on the
// zero-live-edge instance; the weight zeroings pass through isolated-
// unpaid and, often, all-paid states. It returns how many compactions
// actually squeezed the adjacency.
func driveToEmpty(rng *rand.Rand, d *Decremental) (compactions int, err error) {
	var sc Scratch
	if err := checkAgainstReference(d, &sc); err != nil {
		return 0, fmt.Errorf("initial: %w", err)
	}
	for step, ei := range rng.Perm(d.NumEdges()) {
		d.RemoveEdge(ei)
		if rng.Intn(4) == 0 {
			d.ZeroWeight(rng.Intn(d.N()))
		}
		if rng.Intn(3) == 0 {
			before := len(d.adj)
			d.Compact()
			if len(d.adj) < before {
				compactions++
			}
			if err := checkAdjacency(d); err != nil {
				return compactions, fmt.Errorf("step %d: %w", step, err)
			}
		}
		if err := checkAgainstReference(d, &sc); err != nil {
			return compactions, fmt.Errorf("step %d: %w", step, err)
		}
	}
	return compactions, nil
}

// checkAdjacency verifies the adjacency invariant Solve and CHITCHAT's
// commit rely on: every live element appears exactly once in the
// IncidentEdges of each endpoint.
func checkAdjacency(d *Decremental) error {
	seen := make(map[[2]int32]int)
	for u := 0; u < d.N(); u++ {
		for _, ei := range d.IncidentEdges(u) {
			a, b := d.Edge(int(ei))
			if a != int32(u) && b != int32(u) {
				return fmt.Errorf("element %d listed at foreign vertex %d", ei, u)
			}
			seen[[2]int32{int32(u), ei}]++
		}
	}
	for ei := 0; ei < d.NumEdges(); ei++ {
		if !d.EdgeAlive(ei) {
			continue
		}
		a, b := d.Edge(ei)
		if seen[[2]int32{a, int32(ei)}] != 1 || seen[[2]int32{b, int32(ei)}] != 1 {
			return fmt.Errorf("live element %d not listed exactly once per endpoint", ei)
		}
	}
	return nil
}

// The central equivalence the incremental oracle rests on: after ANY
// sequence of element removals, weight zeroings and compactions, Solve
// returns exactly what the reference peel returns on a freshly built
// instance of the live edges — same members in the same order, same edge
// count, same weight bits. CHITCHAT's byte-identical schedules depend on
// this being exact, not approximate.
func TestDecrementalMatchesReferencePeel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		if _, err := driveToEmpty(rng, NewDecremental(randomInstance(rng))); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The states the kernel treats specially, as explicit cases.
func TestDecrementalSpecialStates(t *testing.T) {
	path := [][2]int32{{0, 1}, {1, 2}, {2, 3}}
	cases := []struct {
		name   string
		inst   Instance
		remove []int
	}{
		{"isolated unpaid", Instance{N: 6, Weight: []float64{1, 2, 3, 4, 0.5, 7}, Edges: path}, nil},
		{"isolated unpaid after removal", Instance{N: 4, Weight: []float64{1, 2, 3, 4}, Edges: path}, []int{0}},
		{"isolated paid", Instance{N: 6, Weight: []float64{1, 2, 3, 4, 0, 0}, Edges: path}, nil},
		{"all paid", Instance{N: 4, Weight: make([]float64, 4), Edges: path}, nil},
		{"all paid, no live edge", Instance{N: 4, Weight: make([]float64, 4), Edges: path}, []int{0, 1, 2}},
		{"zero live edges", Instance{N: 4, Weight: []float64{1, 2, 3, 4}, Edges: path}, []int{0, 1, 2}},
		{"no edges at all", Instance{N: 3, Weight: []float64{1, 0, 2}}, nil},
		{"paid pair between unpaid ends", Instance{N: 4, Weight: []float64{5, 0, 0, 5}, Edges: path}, nil},
		{"parallel elements", Instance{N: 3, Weight: []float64{1, 1, 9}, Edges: [][2]int32{{0, 1}, {0, 1}, {1, 2}}}, nil},
	}
	for _, tc := range cases {
		d := NewDecremental(tc.inst)
		for _, ei := range tc.remove {
			d.RemoveEdge(ei)
		}
		for _, compact := range []bool{false, true} {
			if compact {
				d.Compact()
			}
			if err := checkAgainstReference(d, nil); err != nil {
				t.Errorf("%s (compacted=%v): %v", tc.name, compact, err)
			}
		}
	}
}

// A hub-shaped instance large enough that removing its elements crosses
// the compaction threshold several times; the adjacency must shrink each
// time and end empty.
func TestDecrementalCompactsRepeatedly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDecremental(hubInstance(rng, 20, 20, 200))
	compactions, err := driveToEmpty(rng, d)
	if err != nil {
		t.Fatal(err)
	}
	if compactions < 4 {
		t.Fatalf("adjacency compacted %d times over a full drain, want >= 4", compactions)
	}
	d.Compact()
	if len(d.adj) != 0 {
		t.Fatalf("adjacency holds %d slots with no live element", len(d.adj))
	}
}

// Compact is a no-op while at least half the represented elements are
// live: IncidentEdges slices handed out stay valid until the threshold.
func TestCompactThreshold(t *testing.T) {
	inst := Instance{N: 5, Weight: []float64{1, 1, 1, 1, 1},
		Edges: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}}}
	d := NewDecremental(inst)
	d.RemoveEdge(0)
	d.RemoveEdge(1)
	d.Compact()
	if len(d.adj) != 8 {
		t.Fatalf("compacted at half live: %d slots, want 8", len(d.adj))
	}
	d.RemoveEdge(2)
	d.Compact()
	if len(d.adj) != 2 {
		t.Fatalf("below half live: %d slots, want 2", len(d.adj))
	}
	if got := d.IncidentEdges(3); len(got) != 1 || got[0] != 3 {
		t.Fatalf("IncidentEdges(3) = %v, want [3]", got)
	}
}

// Removal bookkeeping: live counts, degrees, and double-removal no-ops.
func TestDecrementalRemovalAccounting(t *testing.T) {
	inst := Instance{
		N:      4,
		Weight: []float64{1, 2, 3, 4},
		Edges:  [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}},
	}
	d := NewDecremental(inst)
	if d.AliveEdges() != 4 {
		t.Fatalf("AliveEdges = %d, want 4", d.AliveEdges())
	}
	if !d.RemoveEdge(1) {
		t.Fatal("first removal reported dead element")
	}
	if d.RemoveEdge(1) {
		t.Fatal("second removal of the same element reported live")
	}
	if d.AliveEdges() != 3 {
		t.Fatalf("AliveEdges = %d, want 3", d.AliveEdges())
	}
	live, _ := d.LiveInstance(nil)
	if len(live.Edges) != 3 {
		t.Fatalf("LiveInstance edges = %d, want 3", len(live.Edges))
	}
	for _, e := range live.Edges {
		if e == [2]int32{1, 2} {
			t.Fatal("removed element still in LiveInstance")
		}
	}
	// Mutating the source instance must not affect the oracle.
	inst.Weight[0] = 99
	if d.Weight(0) != 1 {
		t.Fatalf("Weight(0) = %v, want 1 (materialized copy)", d.Weight(0))
	}
}

// Solve must be a pure read of the maintained state: concurrent solves
// with distinct scratches (CHITCHAT's refresh batches run exactly this
// way) return identical results. Run under -race.
func TestDecrementalConcurrentSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randomInstance(rng)
	for len(inst.Edges) < 8 { // ensure a non-trivial instance
		inst = randomInstance(rng)
	}
	d := NewDecremental(inst)
	d.RemoveEdge(0)
	d.ZeroWeight(1)
	ref := d.Solve(nil)

	const workers = 8
	results := make([]Result, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			var sc Scratch
			for iter := 0; iter < 50; iter++ {
				results[i] = d.Solve(&sc)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if !reflect.DeepEqual(r, ref) {
			t.Fatalf("worker %d result %+v differs from reference %+v", i, r, ref)
		}
	}
}

// commit changes d the way CHITCHAT's commit of res does: every member
// goes weightless and every live element among the members is removed.
func commit(d *Decremental, res Result) {
	member := make([]bool, d.N())
	for _, u := range res.Members {
		member[u] = true
		d.ZeroWeight(int(u))
	}
	for ei := 0; ei < d.NumEdges(); ei++ {
		if a, b := d.Edge(ei); member[a] && member[b] {
			d.RemoveEdge(ei)
		}
	}
}

// driveCommits alternates random mutations of d with chains of commits:
// each chain starts from a fresh Solve and then commits, replays and
// compares the replay with a fresh Solve — members, edge count, weight
// bits and the saved prefix — feeding the replayed result into the next
// link. It returns the length of the longest chain whose every replay
// walked a non-empty prefix.
func driveCommits(rng *rand.Rand, d *Decremental) (longest int, err error) {
	var sc Scratch
	for round := 0; round < 8 && d.AliveEdges() > 0; round++ {
		res := d.Solve(&sc)
		walked := 0
		for link := 0; link < 6 && d.AliveEdges() > 0; link++ {
			commit(d, res)
			if len(res.Peeled) > 0 {
				walked++
			}
			got, want := d.Replay(res, &sc), d.Solve(nil)
			if !reflect.DeepEqual(got, want) {
				return longest, fmt.Errorf("round %d link %d: replay %+v, fresh solve %+v", round, link, got, want)
			}
			if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
				return longest, fmt.Errorf("round %d link %d: weight bits differ", round, link)
			}
			res = got
		}
		longest = max(longest, walked)
		for i := rng.Intn(4); i >= 0; i-- {
			d.RemoveEdge(rng.Intn(d.NumEdges()))
			if rng.Intn(3) == 0 {
				d.ZeroWeight(rng.Intn(d.N()))
			}
		}
		if rng.Intn(2) == 0 {
			d.Compact()
		}
	}
	return longest, nil
}

// After a commit of its own result, Replay must return exactly what a
// fresh Solve returns — over random and hub-shaped instances with paid,
// isolated and tie-heavy vertices, through chains of consecutive commits
// on one instance.
func TestReplayMatchesSolveAfterCommit(t *testing.T) {
	longest := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng)
		if seed%2 == 0 {
			inst = hubInstance(rng, 1+rng.Intn(20), 1+rng.Intn(20), rng.Intn(200))
		}
		n, err := driveCommits(rng, NewDecremental(inst))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		longest = max(longest, n)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if longest < 3 {
		t.Fatalf("longest chain of prefix-walking replays is %d, want >= 3", longest)
	}
}

// The shapes a replay treats specially: a result that kept everything
// (empty prefix), one that kept nothing worth covering, an instance the
// commit leaves without live elements, and the empty instance.
func TestReplaySpecialStates(t *testing.T) {
	path := [][2]int32{{0, 1}, {1, 2}, {2, 3}}
	for name, inst := range map[string]Instance{
		"keeps everything":   {N: 4, Weight: []float64{1, 1, 1, 1}, Edges: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}}},
		"peels a tail":       {N: 5, Weight: []float64{1, 1, 1, 50, 60}, Edges: [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}}},
		"isolated unpaid":    {N: 6, Weight: []float64{1, 2, 3, 4, 0.5, 7}, Edges: path},
		"all paid":           {N: 4, Weight: make([]float64, 4), Edges: path},
		"no edges at all":    {N: 3, Weight: []float64{1, 0, 2}},
		"no vertices at all": {},
	} {
		d := NewDecremental(inst)
		res := d.Solve(nil)
		for link := 0; link < 3; link++ {
			commit(d, res)
			got, want := d.Replay(res, nil), d.Solve(nil)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, link %d: replay %+v, fresh solve %+v", name, link, got, want)
			}
			res = got
		}
	}
}

// FuzzDecrementalEquivalence drives the same equivalence as the quick
// property from arbitrary fuzz seeds, over random and hub-shaped
// instances, and then the replay equivalence on a second instance of the
// same shape.
func FuzzDecrementalEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-9000))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng)
		if seed%2 == 0 {
			inst = hubInstance(rng, 1+rng.Intn(12), 1+rng.Intn(12), rng.Intn(80))
		}
		if _, err := driveToEmpty(rng, NewDecremental(inst)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := driveCommits(rng, NewDecremental(inst)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// BenchmarkDecrementalSolveLate measures one oracle evaluation in the
// state CHITCHAT's re-solves spend most of their peels in (measured on
// the churn_local regional solves: 103 vertices and 643 materialized
// elements per peeled instance, 128 of them live, 63 vertices unpaid): a
// hub-shaped instance late in a solve, with ~80% of its elements covered
// and about half its supports paid.
func lateInstance() *Decremental {
	rng := rand.New(rand.NewSource(13))
	d := NewDecremental(hubInstance(rng, 51, 51, 541))
	for _, ei := range rng.Perm(d.NumEdges())[:d.NumEdges()*4/5] {
		d.RemoveEdge(ei)
	}
	for u := 0; u < d.N(); u += 2 {
		d.ZeroWeight(u)
	}
	d.Compact()
	return d
}

func BenchmarkDecrementalSolveLate(b *testing.B) {
	d := lateInstance()
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = d.Solve(&sc)
	}
}

// BenchmarkDecrementalReplay measures what follows a hub commit in the
// same state: the replay of the committed peel, against the re-peel
// BenchmarkDecrementalSolveLate prices.
func BenchmarkDecrementalReplay(b *testing.B) {
	d := lateInstance()
	var sc Scratch
	res := d.Solve(&sc)
	commit(d, res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = d.Replay(res, &sc)
	}
}

var benchSink Result

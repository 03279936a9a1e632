package online

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// refCheck is one candidate-region evaluation as the daemon made it
// before it remembered anything: everything derived from scratch, with
// hashed membership and a binary-search EdgeSource per edge. It shares no
// code with checkRegion, priceRegion or the graph kernels.
type refCheck struct {
	seed    graph.NodeID // -1: no node carries dirt
	nodes   []graph.NodeID
	edges   int
	dirt    float64
	cost    float64
	resolve bool
}

func refSortDedup(nodes []graph.NodeID) []graph.NodeID {
	nodes = append([]graph.NodeID(nil), nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	dst := 0
	for i, v := range nodes {
		if i > 0 && v == nodes[i-1] {
			continue
		}
		nodes[dst] = v
		dst++
	}
	return nodes[:dst]
}

func refKHop(g *graph.Graph, seed graph.NodeID, k, maxNodes int) []graph.NodeID {
	frontier := []graph.NodeID{seed}
	seen := map[graph.NodeID]struct{}{seed: {}}
	out := []graph.NodeID{seed}
	for hop := 0; hop < k; hop++ {
		var next []graph.NodeID
		for _, u := range frontier {
			for _, adj := range [][]graph.NodeID{g.OutNeighbors(u), g.InNeighbors(u)} {
				for _, v := range adj {
					if _, ok := seen[v]; !ok {
						seen[v] = struct{}{}
						next = append(next, v)
					}
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		full := false
		if maxNodes > 0 && len(out)+len(next) >= maxNodes {
			next = next[:maxNodes-len(out)]
			full = true
		}
		out = append(out, next...)
		if full || len(next) == 0 {
			break
		}
		frontier = next
	}
	return refSortDedup(out)
}

func refInducedEdgeIDs(g *graph.Graph, nodes []graph.NodeID) []graph.EdgeID {
	set := make(map[graph.NodeID]struct{}, len(nodes))
	for _, v := range nodes {
		set[v] = struct{}{}
	}
	var out []graph.EdgeID
	for _, u := range nodes {
		lo, hi := g.OutEdgeRange(u)
		for e := lo; e < hi; e++ {
			if _, ok := set[g.EdgeTarget(e)]; ok {
				out = append(out, e)
			}
		}
	}
	return out
}

func referenceCheck(d *Daemon) refCheck {
	c := refCheck{seed: -1}
	best := 0.0
	for v, amt := range d.dirt {
		if amt > best {
			c.seed, best = graph.NodeID(v), amt
		}
	}
	if c.seed < 0 {
		return c
	}
	c.nodes = refKHop(d.epoch, c.seed, d.cfg.K, d.cfg.MaxRegionNodes)
	for _, v := range c.nodes {
		c.dirt += d.dirt[v]
	}
	ids := refInducedEdgeIDs(d.epoch, c.nodes)
	c.edges = len(ids)
	for _, e := range ids {
		c.cost += baseline.EdgeCost(d.r, d.epoch.EdgeSource(e), d.epoch.EdgeTarget(e))
	}
	threshold := d.cfg.DriftThreshold * float64(int64(1)<<min(d.revertStreak, 40))
	c.resolve = c.dirt > threshold*math.Max(c.cost, 1e-9) &&
		(d.cfg.BudgetFraction < 0 ||
			float64(d.stats.RegionEdges+c.edges) <= d.cfg.BudgetFraction*float64(d.m.NumEdges()))
	return c
}

// checkedBoundary is a check boundary with the reference held against its
// check: the boundary's splice first, then the from-scratch evaluation of
// the state the check sees, then checkRegion, after which the remembered
// region and the decision must equal the reference to the last bit. The
// disturbed zoo run makes every boundary this way, and must end where the
// observed run, whose boundaries Apply makes, ends: that ties this copy of
// the boundary to the real one.
func checkedBoundary(d *Daemon, at int) error {
	d.splice(context.Background())
	if d.cfg.DriftThreshold < 0 || !d.charged {
		return nil
	}
	d.charged = false
	if d.cfg.BudgetFraction >= 0 &&
		float64(d.stats.RegionEdges) >= d.cfg.BudgetFraction*float64(d.m.NumEdges()) {
		return nil
	}
	want, epoch := referenceCheck(d), d.epoch
	did := d.checkRegion(context.Background())
	if want.seed < 0 {
		if did {
			return fmt.Errorf("op %d: re-solved with no dirt anywhere", at)
		}
		return nil
	}
	rg := &d.region
	switch {
	case rg.seed != want.seed || rg.epoch != epoch:
		return fmt.Errorf("op %d: seed %d, want %d (epoch current: %v)", at, rg.seed, want.seed, rg.epoch == epoch)
	case !slices.Equal(rg.nodes, want.nodes):
		return fmt.Errorf("op %d: region of seed %d has %d nodes, reference %d", at, rg.seed, len(rg.nodes), len(want.nodes))
	case rg.edges != want.edges:
		return fmt.Errorf("op %d: %d region edges, want %d", at, rg.edges, want.edges)
	case math.Float64bits(rg.cost) != math.Float64bits(want.cost):
		return fmt.Errorf("op %d: Σc* = %v, want %v", at, rg.cost, want.cost)
	case math.Float64bits(rg.dirt) != math.Float64bits(want.dirt):
		return fmt.Errorf("op %d: region dirt = %v, want %v", at, rg.dirt, want.dirt)
	case did != want.resolve:
		return fmt.Errorf("op %d: re-solved = %v, want %v", at, did, want.resolve)
	}
	for v := 0; v < rg.in.Len(); v++ {
		if _, member := slices.BinarySearch(rg.nodes, graph.NodeID(v)); rg.in.Test(v) != member {
			return fmt.Errorf("op %d: membership bit of node %d is %v", at, v, rg.in.Test(v))
		}
	}
	return nil
}

// Every check of every zoo cell equals the from-scratch one (the disturbed
// runs, zoo_test.go). The churn cell, a stationary trace on a graph several
// regions wide, takes every path: rate ops, extraction, reuse, accept and
// revert.
func TestRememberedRegionIsExact(t *testing.T) {
	eachCell(t, false, func(t *testing.T, r *zooResult) {
		noFindings(t, r.disturbed, oLockstep)
		st := r.disturbed.stats
		if st.DriftChecks == 0 || st.Resolves+st.Reverted == 0 {
			t.Fatalf("nothing to compare: %+v", st)
		}
		if r.cell.name == "churn" && (st.RateUpdates == 0 || st.RegionExtractions == 0 ||
			st.RegionExtractions == st.DriftChecks || st.Resolves == 0 || st.Reverted == 0) {
			t.Fatalf("trace misses a path (rate ops, extraction, reuse, accept, revert): %+v", st)
		}
		sameEnd(t, r)
	})
}

// checkNow makes the next drift check happen, holds it against the
// reference and splices the attempt it starts.
func checkNow(t *testing.T, d *Daemon) {
	t.Helper()
	d.charged = true
	if err := checkedBoundary(d, d.stats.Ops); err != nil {
		t.Fatal(err)
	}
	d.Flush(context.Background())
}

func rateOp(d *Daemon, u graph.NodeID, dProd float64) workload.ChurnOp {
	return workload.ChurnOp{Kind: workload.OpRates, U: u, Prod: d.r.Prod[u] + dProd, Cons: d.r.Cons[u]}
}

// The transitions of the remembered region, one at a time.
func TestRememberedRegionTransitions(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(400, 5))
	base := workload.LogDegree(g, 5)
	newDaemon := func(threshold float64) *Daemon {
		cfg := Config{DriftThreshold: threshold, CheckEvery: math.MaxInt, MaxRegionNodes: 60, BudgetFraction: -1}
		d, err := New(baseline.Hybrid(g, base), freshRates(g, base), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	apply := func(d *Daemon, op workload.ChurnOp) {
		t.Helper()
		if err := d.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	// A seed with both in- and out-edges inside its region, and a member
	// and a non-member of that region to aim rate ops at.
	seed := graph.NodeID(0)
	for g.OutDegree(seed) == 0 || g.InDegree(seed) == 0 {
		seed++
	}
	region := graph.KHop(g, []graph.NodeID{seed}, 2, 60)
	member, outsider := g.OutNeighbors(seed)[0], graph.NodeID(0)
	for slices.Contains(region, outsider) || g.OutDegree(outsider) == 0 {
		outsider++
	}

	t.Run("rate op between two same-seed checks", func(t *testing.T) {
		d := newDaemon(1e18) // checks, never re-solves
		apply(d, rateOp(d, seed, 1000))
		checkNow(t, d)
		cost := d.region.cost
		apply(d, rateOp(d, outsider, 1)) // no member touched: Σc* stands
		checkNow(t, d)
		if d.region.stale || d.region.cost != cost {
			t.Fatalf("rate op outside the region moved Σc*: %v → %v", cost, d.region.cost)
		}
		apply(d, rateOp(d, member, 3)) // a member's rates moved: Σc* is summed again
		if !d.region.stale {
			t.Fatal("rate op on a member did not mark Σc* stale")
		}
		checkNow(t, d)
		if d.region.cost == cost {
			t.Fatalf("Σc* unchanged after a member's rates moved")
		}
		if st := d.Stats(); st.DriftChecks != 3 || st.RegionExtractions != 1 {
			t.Fatalf("DriftChecks %d RegionExtractions %d, want 3 and 1", st.DriftChecks, st.RegionExtractions)
		}
	})

	t.Run("accept replaces the epoch, and the entry with it", func(t *testing.T) {
		d := newDaemon(1e-9) // hybrid start: CHITCHAT wins its region
		apply(d, rateOp(d, seed, 1))
		epoch := d.epoch
		checkNow(t, d)
		if st := d.Stats(); st.Resolves == 0 || d.epoch == epoch {
			t.Fatalf("no accepted re-solve: %+v", st)
		}
		extractions := d.Stats().RegionExtractions
		apply(d, rateOp(d, seed, 1)) // same seed, new epoch
		checkNow(t, d)
		if d.Stats().RegionExtractions == extractions {
			t.Fatalf("same seed on a new epoch was answered from the old epoch's region")
		}
	})

	t.Run("revert keeps the epoch; the seed's dirt is gone", func(t *testing.T) {
		d := newDaemon(1e-9)
		// A patch equal to the incumbent, with nothing left for the sweeps
		// to win either, never beats the incumbent.
		d.regional, d.noAmortize = identitySolver{}, true
		apply(d, rateOp(d, seed, 1))
		apply(d, rateOp(d, outsider, 0.5)) // less dirt: second in line
		epoch := d.epoch
		checkNow(t, d)
		st := d.Stats()
		if st.Reverted != 1 || st.Resolves != 0 || d.epoch != epoch || d.dirt[seed] != 0 {
			t.Fatalf("want one revert on the same epoch, the seed's dirt cleared: %+v, dirt %v", st, d.dirt[seed])
		}
		checkNow(t, d) // the next boundary checks again, though no op charged anything
		if d.region.seed == seed {
			t.Fatalf("after the revert the check did not move on from seed %d", seed)
		}
		// The old seed, dirty again on the same epoch: a fresh extraction
		// (one entry, and it now belongs to another seed) that must give
		// the region it gave before.
		apply(d, rateOp(d, seed, 1000))
		d.cfg.DriftThreshold = 1e18
		checkNow(t, d)
		if d.region.seed != seed || !slices.Equal(d.region.nodes, region) {
			t.Fatalf("seed %d re-extracted to a different region on the same epoch", seed)
		}
	})

	t.Run("region dissolved on the live graph", func(t *testing.T) {
		d := newDaemon(1e-9)
		for _, e := range graph.InducedEdgeIDs(g, region) {
			apply(d, workload.ChurnOp{Kind: workload.OpRemove, U: g.EdgeSource(e), V: g.EdgeTarget(e)})
		}
		for v := range d.dirt { // whatever the removals' rescues charged
			d.dirt[v] = 0
		}
		apply(d, rateOp(d, seed, 1))
		epoch := d.epoch
		checkNow(t, d)
		st := d.Stats()
		if st.Resolves+st.Reverted != 0 || d.epoch != epoch || d.dirt[seed] != 0 {
			t.Fatalf("dissolved region: %+v, dirt[seed] = %v", st, d.dirt[seed])
		}
		// The epoch still has the edges, so the entry still answers.
		apply(d, rateOp(d, seed, 1))
		checkNow(t, d)
		if st := d.Stats(); st.RegionExtractions != 1 || st.DriftChecks < 2 {
			t.Fatalf("same seed and epoch after a dissolved re-solve: %+v", st)
		}
	})
}

// The case about nine in ten of churn_local's checks are: the dirtiest
// node stays put (one large rate op pins it) while rate ops land on a
// user outside its region, every Apply is a check and none re-solves.
// Such a check reads the remembered region: no extraction, no allocation.
func TestCheckFromRememberedRegionDoesNotAllocate(t *testing.T) {
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(20_000, 7))
	r := workload.LogDegree(g, 5)
	d, err := New(baseline.Hybrid(g, r), r, Config{
		DriftThreshold: 1e18, CheckEvery: 1, MaxRegionNodes: 64, BudgetFraction: -1,
		Metrics: telemetry.NewRegistry(), // online_apply_seconds reads the clock on every op
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := graph.NodeID(0)
	for g.OutDegree(seed) == 0 {
		seed++
	}
	region := graph.KHop(g, []graph.NodeID{seed}, 2, 64)
	outsider := graph.NodeID(0)
	for slices.Contains(region, outsider) || g.OutDegree(outsider) == 0 {
		outsider++
	}
	step := 1.0
	apply := func(op workload.ChurnOp) {
		if err := d.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	nudge := func() { // Prod of the outsider: +1, −1, +1, …
		apply(rateOp(d, outsider, step))
		step = -step
	}
	apply(rateOp(d, seed, 1e12))
	nudge()
	before := d.Stats()
	if before.RegionExtractions != 1 || d.region.seed != seed {
		t.Fatalf("set-up: %d extractions, remembered seed %d, want 1 and %d", before.RegionExtractions, d.region.seed, seed)
	}
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, nudge); allocs != 0 {
		t.Errorf("a check answered from the remembered region allocates %v times", allocs)
	}
	st := d.Stats()
	if st.RegionExtractions != before.RegionExtractions {
		t.Errorf("%d regions extracted across the measured ops, want none", st.RegionExtractions-before.RegionExtractions)
	}
	if st.DriftChecks-before.DriftChecks < runs || st.Resolves+st.Reverted != 0 {
		t.Fatalf("the measured ops were not checks without a re-solve: %+v", st)
	}
}

// An op naming a user that does not exist is an error, whatever its
// kind, and leaves the daemon as it was.
func TestDaemonRejectsOutOfRangeUsers(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(50, 2))
	base := workload.LogDegree(g, 5)
	r := freshRates(g, base)
	d, err := New(chitchat.Solve(g, r, chitchat.Config{Workers: 1}), r, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := graph.NodeID(g.NumNodes())
	ops, cost := d.Stats().Ops, d.Cost()
	for _, kind := range []workload.OpKind{workload.OpAdd, workload.OpRemove, workload.OpRates} {
		for _, u := range []graph.NodeID{-1, n, 9999} {
			for _, op := range []workload.ChurnOp{
				{Kind: kind, U: u, V: 1, Prod: 1, Cons: 1},
				{Kind: kind, U: 1, V: u, Prod: 1, Cons: 1},
			} {
				if kind == workload.OpRates && op.U == 1 {
					continue // a rate op has no V
				}
				if err := d.Apply(op); err == nil {
					t.Errorf("kind %d on user %d→%d accepted", kind, op.U, op.V)
				}
				if d.Stats().Ops != ops || d.Cost() != cost {
					t.Fatalf("rejected op changed the daemon: ops %d→%d cost %v→%v", ops, d.Stats().Ops, cost, d.Cost())
				}
			}
		}
	}
}

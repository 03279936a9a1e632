package online

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/scenario"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// refCheck is one candidate-region evaluation as the daemon made it
// before it remembered anything: everything derived from scratch, with
// hashed membership and a binary-search EdgeSource per edge. It shares no
// code with checkRegion, priceRegion or the graph kernels, and keeps its
// sums at every member boundary.
type refCheck struct {
	seed  graph.NodeID // -1: no node carries dirt
	nodes []graph.NodeID
	// edgesAt[k] and costAt[k] are the edge count and Σc* of the induced
	// edges whose source is among nodes[:k], summed in ascending edge id.
	edgesAt   []int
	costAt    []float64
	dirt      float64
	threshold float64
	resolve   bool // decided on the full sums
}

// stop is where a check whose prefix starts at from must stop: the least
// k ≥ from with dirt ≤ threshold·max(costAt[k], 1e-9), or all members.
func (c *refCheck) stop(from int) int {
	for k := from; k < len(c.nodes); k++ {
		if c.dirt <= c.threshold*math.Max(c.costAt[k], 1e-9) {
			return k
		}
	}
	return len(c.nodes)
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

// referenceDirtiest is the scan the daemon ran at every check before it
// kept the argmax: the node with the most dirt, the lowest id on ties, or
// -1 while no node carries dirt.
func referenceDirtiest(d *Daemon) graph.NodeID {
	seed, best := graph.NodeID(-1), 0.0
	for v, amt := range d.dirt {
		if amt > best {
			seed, best = graph.NodeID(v), amt
		}
	}
	return seed
}

func referenceCheck(d *Daemon) refCheck {
	c := refCheck{seed: referenceDirtiest(d)}
	if c.seed < 0 {
		return c
	}
	c.nodes = refKHop(d.epoch, c.seed, regionHops, d.maxRegion)
	for _, v := range c.nodes {
		c.dirt += d.dirt[v]
	}
	n := len(c.nodes)
	c.edgesAt, c.costAt = make([]int, n+1), make([]float64, n+1)
	k, edges, cost := 0, 0, 0.0
	for _, e := range refInducedEdgeIDs(d.epoch, c.nodes) {
		for src := d.epoch.EdgeSource(e); c.nodes[k] != src; {
			k++
			c.edgesAt[k], c.costAt[k] = edges, cost
		}
		edges++
		cost += baseline.EdgeCost(d.r, d.epoch.EdgeSource(e), d.epoch.EdgeTarget(e))
	}
	for k < n {
		k++
		c.edgesAt[k], c.costAt[k] = edges, cost
	}
	c.threshold = d.cfg.DriftThreshold * float64(int64(1)<<min(d.revertStreak, 40))
	c.resolve = c.dirt > c.threshold*math.Max(cost, 1e-9) &&
		(d.cfg.BudgetFraction < 0 ||
			float64(d.stats.RegionEdges+edges) <= d.cfg.BudgetFraction*float64(d.m.NumEdges()))
	return c
}

// lockstep holds a daemon's drift checks against referenceCheck. It keeps
// the reference's own memory of the cursor: the region the previous check
// read, where that check stopped, moved back by the member rate ops
// applied since, and whether there were any. It also counts the members
// the checks priced.
type lockstep struct {
	d       *Daemon
	epoch   *graph.Graph
	seed    graph.NodeID
	nodes   []graph.NodeID
	at      int
	touched bool // a rate op on a member since the previous check
	pricing pricing
}

// pricing counts the members a run's drift checks priced, and the members
// re-summing every extracted or rate-touched region in full (the rule
// before checks stopped early) prices; the no fields count only the checks
// that did not re-solve, the ones a prefix can save on: a re-solve needs
// the full sum.
type pricing struct{ priced, full, noPriced, noFull int }

func newLockstep(d *Daemon) *lockstep { return &lockstep{d: d, seed: -1} }

// apply ingests op, moving the cursor back for a member's rate op.
func (ls *lockstep) apply(op workload.ChurnOp) error {
	var p, c float64
	if op.Kind == workload.OpRates && op.U >= 0 && int(op.U) < len(ls.d.r.Prod) {
		p, c = ls.d.r.Prod[op.U], ls.d.r.Cons[op.U]
	}
	if err := ls.d.Apply(op); err != nil {
		return err
	}
	if _, member := slices.BinarySearch(ls.nodes, op.U); op.Kind == workload.OpRates && member {
		ls.touched = true
		ls.rewind(op.U, p, c)
	}
	return nil
}

// rewind moves the cursor back to the first member before it with an
// induced out-edge whose c* changed bits when u's rates went from p, c to
// the live ones: every induced edge of the priced prefix is priced twice.
func (ls *lockstep) rewind(u graph.NodeID, p, c float64) {
	r := ls.d.r
	before := func(x graph.NodeID, live []float64, old float64) float64 {
		if x == u {
			return old
		}
		return live[x]
	}
	for k, x := range ls.nodes[:ls.at] {
		for _, y := range ls.epoch.OutNeighbors(x) {
			if _, member := slices.BinarySearch(ls.nodes, y); !member || x != u && y != u {
				continue
			}
			was := math.Min(before(x, r.Prod, p), before(y, r.Cons, c))
			if math.Float64bits(was) != math.Float64bits(math.Min(r.Prod[x], r.Cons[y])) {
				ls.at = k
				return
			}
		}
	}
}

// boundary is a check boundary with the reference held against its check:
// the boundary's splice first, then the from-scratch evaluation of the
// state the check sees, whose dirtiest node the daemon's kept argmax must
// be, then checkRegion, after which the remembered region, its cursor and
// prefix sums, its cached rows and the decision must equal the reference
// to the last bit, and so must the checkpoints. The cursor starts at 0
// after an extraction, and where the previous check stopped otherwise,
// moved back by the member rate ops since (lockstep.rewind).
// The disturbed zoo run makes every boundary this way, and must end where
// the observed run, whose boundaries Apply makes, ends: that ties this
// copy of the boundary to the real one.
func (ls *lockstep) boundary(at int) error {
	d := ls.d
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
	if got := d.dirtiestNode(); got != want.seed {
		return fmt.Errorf("op %d: dirtiest node %d, the scan finds %d", at, got, want.seed)
	}
	did := d.checkRegion(context.Background())
	if err := cachedRowsAgree(&d.region); err != nil {
		return fmt.Errorf("op %d: %v", at, err)
	}
	if want.seed < 0 {
		if did {
			return fmt.Errorf("op %d: re-solved with no dirt anywhere", at)
		}
		return nil
	}
	n := len(want.nodes)
	from, full := 0, n
	if want.seed == ls.seed && epoch == ls.epoch {
		from = ls.at
		if !ls.touched {
			full = 0
		}
	}
	stop := want.stop(from)
	p := &ls.pricing
	p.priced, p.full = p.priced+stop-from, p.full+full
	if !did {
		p.noPriced, p.noFull = p.noPriced+stop-from, p.noFull+full
	}
	ls.epoch, ls.seed, ls.nodes, ls.at, ls.touched = epoch, want.seed, want.nodes, stop, false
	rg := &d.region
	switch {
	case rg.seed != want.seed || rg.epoch != epoch:
		return fmt.Errorf("op %d: seed %d, want %d (epoch current: %v)", at, rg.seed, want.seed, rg.epoch == epoch)
	case !slices.Equal(rg.nodes, want.nodes):
		return fmt.Errorf("op %d: region of seed %d has %d nodes, reference %d", at, rg.seed, len(rg.nodes), n)
	case rg.at != stop:
		return fmt.Errorf("op %d: the check stopped after %d of %d members, want %d (from %d)", at, rg.at, n, stop, from)
	case rg.edges != want.edgesAt[stop]:
		return fmt.Errorf("op %d: %d region edges over %d members, want %d", at, rg.edges, stop, want.edgesAt[stop])
	case math.Float64bits(rg.cost) != math.Float64bits(want.costAt[stop]):
		return fmt.Errorf("op %d: Σc* over %d members = %v, want %v", at, stop, rg.cost, want.costAt[stop])
	case !slices.EqualFunc(rg.sums, want.costAt[:stop], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }):
		return fmt.Errorf("op %d: %d checkpoints %v, want %v", at, len(rg.sums), rg.sums, want.costAt[:stop])
	case math.Float64bits(rg.dirt) != math.Float64bits(want.dirt):
		return fmt.Errorf("op %d: region dirt = %v, want %v", at, rg.dirt, want.dirt)
	case did != want.resolve:
		return fmt.Errorf("op %d: re-solved = %v, want %v", at, did, want.resolve)
	case did && stop != n:
		return fmt.Errorf("op %d: re-solved on %d of %d members", at, stop, n)
	}
	for v := range d.dirt {
		if _, member := slices.BinarySearch(rg.nodes, graph.NodeID(v)); rg.in.Test(v) != member {
			return fmt.Errorf("op %d: membership bit of node %d is %v", at, v, rg.in.Test(v))
		}
	}
	return nil
}

// cachedRowsAgree holds every cached row of the remembered region against
// a fresh scan of its member's epoch out-row, membership by binary search
// over the members: the cache covers at least the members the cursor has
// passed, each row holding exactly the member's induced targets in CSR
// order.
func cachedRowsAgree(rg *regionEntry) error {
	if len(rg.off) == 0 {
		return nil // nothing extracted yet
	}
	cached := len(rg.off) - 1
	if rg.off[0] != 0 || cached < rg.at || cached > len(rg.nodes) || int(rg.off[cached]) != len(rg.rows) {
		return fmt.Errorf("row cache of %d members over %d targets, cursor %d of %d members", cached, len(rg.rows), rg.at, len(rg.nodes))
	}
	for k, u := range rg.nodes[:cached] {
		var want []graph.NodeID
		for _, v := range rg.epoch.OutNeighbors(u) {
			if _, member := slices.BinarySearch(rg.nodes, v); member {
				want = append(want, v)
			}
		}
		if got := rg.rows[rg.off[k]:rg.off[k+1]]; !slices.Equal(got, want) {
			return fmt.Errorf("cached row of member %d (node %d) is %v, a fresh scan %v", k, u, got, want)
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

// pricedPins are what the lockstep reference counted on each zoo cell,
// timing-free, at the acceptance geometry and in the churn cell. The re-
// solving checks price every member either way, which is why the churn
// cell, where 14 of 99 checks re-solve, saves least. A member's rate op
// rewinds only to the first member whose c* it moved; when it reset the
// prefix instead, priced and noPriced were 9101/4901 (cascade), 17522/5522
// (diurnal), 17311/3787 (flashcrowd), 10796/4798 (ldbc), 7875/4878
// (preferential), 5907/4703 (regionchurn) and 2138/789 (churn). Diurnal
// and flashcrowd were 17272/30000/5290/18000 and 15484/28200/2863/14700
// while the exterior-amortization sweep still ran: their accepts moved
// when it went, and with them what the checks after priced.
var pricedPins = map[string]pricing{
	scenario.Cascade:      {priced: 6795, full: 29095, noPriced: 2877, noFull: 24895},
	scenario.Diurnal:      {priced: 17461, full: 30000, noPriced: 5479, noFull: 18000},
	scenario.FlashCrowd:   {priced: 15760, full: 28200, noPriced: 2839, noFull: 14400},
	scenario.LDBC:         {priced: 9797, full: 27594, noPriced: 4108, noFull: 21596},
	scenario.Preferential: {priced: 4813, full: 19461, noPriced: 2690, noFull: 16464},
	scenario.RegionChurn:  {priced: 4321, full: 15896, noPriced: 3143, noFull: 14696},
	"churn":               {priced: 1973, full: 2900, noPriced: 680, noFull: 1600},
}

// A check prices only the prefix its decision needs: the counts are
// pinned, and on the churn cell the checks that do not re-solve price at
// most half of what re-summing in full would price.
func TestDriftCheckPricesPrefix(t *testing.T) {
	eachCell(t, false, func(t *testing.T, r *zooResult) {
		noFindings(t, r.disturbed, oLockstep)
		got := r.disturbed.pricing
		if pin, ok := pricedPins[r.cell.name]; ok && (r.cell.pinned || r.cell.name == "churn") && got != pin {
			t.Errorf("members priced: %+v, pinned %+v", got, pin)
		}
		if got.priced > got.full {
			t.Errorf("the checks priced %d members, more than the %d of re-summing in full", got.priced, got.full)
		}
		if r.cell.name == "churn" && 2*got.noPriced > got.noFull {
			t.Errorf("the checks that did not re-solve priced %d members, more than half of %d", got.noPriced, got.noFull)
		}
	})
}

// checkNow makes the next drift check happen, holds it against the
// reference and splices the attempt it starts.
func checkNow(t *testing.T, ls *lockstep) {
	t.Helper()
	ls.d.charged = true
	if err := ls.boundary(ls.d.stats.Ops); err != nil {
		t.Fatal(err)
	}
	ls.d.Flush(context.Background())
}

func rateOp(d *Daemon, u graph.NodeID, dProd float64) workload.ChurnOp {
	return workload.ChurnOp{Kind: workload.OpRates, U: u, Prod: d.r.Prod[u] + dProd, Cons: d.r.Cons[u]}
}

// halfway sets the daemon's threshold so that the next check, its region
// priced from the first member, stops about half way through it.
func halfway(d *Daemon) {
	c := referenceCheck(d)
	d.cfg.DriftThreshold = 2 * c.dirt / c.costAt[len(c.nodes)]
}

// The transitions of the remembered region, one at a time.
func TestRememberedRegionTransitions(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(400, 5))
	base := workload.LogDegree(g, 5)
	newDaemon := func(threshold float64) (*Daemon, *lockstep) {
		cfg := Config{DriftThreshold: threshold, CheckEvery: math.MaxInt, BudgetFraction: -1}
		d, err := New(baseline.Hybrid(g, base), freshRates(g, base), cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.maxRegion = 60
		return d, newLockstep(d)
	}
	apply := func(ls *lockstep, op workload.ChurnOp) {
		t.Helper()
		if err := ls.apply(op); err != nil {
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
	// stopsInside fails t unless the last check stopped strictly inside
	// the region: some members priced, some not.
	stopsInside := func(d *Daemon) int {
		t.Helper()
		if at := d.region.at; at > 0 && at < len(d.region.nodes) {
			return at
		}
		t.Fatalf("set-up: the check priced %d of %d members, want some but not all", d.region.at, len(d.region.nodes))
		return 0
	}

	t.Run("rate op between two same-seed checks", func(t *testing.T) {
		// The first seed whose halfway check leaves a priced member whose
		// row costs its targets' rc throughout (raising its rp moves no
		// c*), a member past the cursor with a row edge that costs its rp,
		// and one with an in-edge from a priced member other than the
		// first (the region of an early hub, whose row reaches every
		// member, has none).
		var (
			d                     *Daemon
			ls                    *lockstep
			at, quiet, past, late int
			first                 int
		)
		for s := graph.NodeID(0); ; s++ {
			if int(s) == g.NumNodes() {
				t.Fatal("set-up: no seed has the members the rate ops need")
			}
			if g.OutDegree(s) == 0 || g.InDegree(s) == 0 {
				continue
			}
			d, ls = newDaemon(1e18) // checks, never re-solves
			apply(ls, rateOp(d, s, 1000))
			halfway(d)
			checkNow(t, ls)
			rg := &d.region
			if at = rg.at; at == 0 || at == len(rg.nodes) {
				continue
			}
			quiet = slices.IndexFunc(rg.nodes[:at], func(u graph.NodeID) bool {
				k, _ := slices.BinarySearch(rg.nodes, u)
				row := rg.rows[rg.off[k]:rg.off[k+1]]
				return len(row) > 0 && !slices.ContainsFunc(row, func(v graph.NodeID) bool { return d.r.Cons[v] > d.r.Prod[u] })
			})
			past = at + slices.IndexFunc(rg.nodes[at:], func(u graph.NodeID) bool {
				return slices.ContainsFunc(g.OutNeighbors(u), func(v graph.NodeID) bool {
					return rg.in.Test(int(v)) && d.r.Prod[u] < d.r.Cons[v]
				})
			})
			for late = at; late < len(rg.nodes); late++ {
				u := rg.nodes[late]
				first = slices.IndexFunc(rg.nodes[:at], func(x graph.NodeID) bool {
					return slices.Contains(g.OutNeighbors(x), u) && d.r.Prod[x] > 0
				})
				if first > 0 && d.r.Cons[u] > 0 {
					break
				}
			}
			if quiet >= 0 && past >= at && late < len(rg.nodes) {
				break
			}
		}
		rg := &d.region
		edges, cost := rg.edges, rg.cost
		stands := func(what string) {
			t.Helper()
			if rg.at != at || rg.edges != edges || rg.cost != cost {
				t.Fatalf("%s moved the prefix: %d members, %d edges, Σc* %v → %d, %d, %v", what, at, edges, cost, rg.at, rg.edges, rg.cost)
			}
		}
		away := graph.NodeID(0) // outside this seed's region
		for slices.Contains(rg.nodes, away) || g.OutDegree(away) == 0 {
			away++
		}
		apply(ls, rateOp(d, away, 1))
		stands("a rate op outside the region")
		checkNow(t, ls)
		stands("a check with no new dirt in the region")
		apply(ls, rateOp(d, rg.nodes[quiet], 5))
		stands("a rate op that moves no c*")
		// Past the cursor, an rp op moves only the member's own row.
		apply(ls, rateOp(d, rg.nodes[past], 3))
		stands("a rate op whose c* all lie past the cursor")
		// An rc op on a member past the cursor moves the c* of its
		// in-edges, the first of them out of member first's row.
		u := rg.nodes[late]
		apply(ls, workload.ChurnOp{Kind: workload.OpRates, U: u, Prod: d.r.Prod[u], Cons: 0})
		want := referenceCheck(d)
		if rg.at != first || rg.edges != want.edgesAt[first] || math.Float64bits(rg.cost) != math.Float64bits(want.costAt[first]) {
			t.Fatalf("an in-edge's c* moved at member %d of the %d priced: the prefix went to %d members, %d edges, Σc* %v; want %d, %v",
				first, at, rg.at, rg.edges, rg.cost, want.edgesAt[first], want.costAt[first])
		}
		checkNow(t, ls) // resumed from that member against the reference, not re-extracted
		if st := d.Stats(); st.DriftChecks != 3 || st.RegionExtractions != 1 {
			t.Fatalf("DriftChecks %d RegionExtractions %d, want 3 and 1", st.DriftChecks, st.RegionExtractions)
		}
	})

	t.Run("a member's rate op re-prices from the cached rows", func(t *testing.T) {
		d, ls := newDaemon(1e-9)     // every check crosses,
		d.cfg.BudgetFraction = 1e-12 // and none has budget: priced in full, never started
		apply(ls, rateOp(d, seed, 1000))
		checkNow(t, ls)
		rg := &d.region
		if rg.at != len(rg.nodes) || len(rg.off) != len(rg.nodes)+1 || len(rg.rows) == 0 {
			t.Fatalf("set-up: the check priced %d of %d members and cached %d rows", rg.at, len(rg.nodes), len(rg.off)-1)
		}
		apply(ls, rateOp(d, member, 3)) // the prefix is void; the rows stand
		want := referenceCheck(d)
		// A target's membership bit, cleared for the one check: a re-price
		// that scanned the rows against the bitmap would miss its edges.
		victim := rg.rows[0]
		rg.in.Clear(int(victim))
		d.charged = true
		d.checkRegion(context.Background())
		rg.in.Set(int(victim))
		n := len(want.nodes)
		if rg.at != n || rg.edges != want.edgesAt[n] || math.Float64bits(rg.cost) != math.Float64bits(want.costAt[n]) {
			t.Fatalf("re-priced %d of %d members: %d edges, Σc* %v; want %d, %v", rg.at, n, rg.edges, rg.cost, want.edgesAt[n], want.costAt[n])
		}
		if st := d.Stats(); st.DriftChecks != 2 || st.RegionExtractions != 1 || st.Resolves+st.Reverted != 0 {
			t.Fatalf("the re-price extracted or re-solved: %+v", st)
		}
	})

	t.Run("same seed with more dirt resumes from the cursor", func(t *testing.T) {
		d, ls := newDaemon(1e18)
		apply(ls, rateOp(d, seed, 1000))
		halfway(d)
		checkNow(t, ls)
		at := stopsInside(d)
		d.dirt[seed] += d.region.dirt / 4 // no op, so no rate op: the cursor stands
		checkNow(t, ls)
		if d.region.at <= at || d.region.at == len(d.region.nodes) {
			t.Fatalf("a quarter more dirt moved the stop from %d to %d of %d members", at, d.region.at, len(d.region.nodes))
		}
		if st := d.Stats(); st.RegionExtractions != 1 || st.Resolves+st.Reverted != 0 {
			t.Fatalf("same seed and epoch: %+v", st)
		}
	})

	t.Run("accept replaces the epoch, and the entry with it", func(t *testing.T) {
		d, ls := newDaemon(1e-9) // hybrid start: CHITCHAT wins its region
		apply(ls, rateOp(d, seed, 1))
		epoch := d.epoch
		checkNow(t, ls)
		if st := d.Stats(); st.Resolves == 0 || d.epoch == epoch {
			t.Fatalf("no accepted re-solve: %+v", st)
		}
		extractions := d.Stats().RegionExtractions
		apply(ls, rateOp(d, seed, 1)) // same seed, new epoch
		checkNow(t, ls)
		if d.Stats().RegionExtractions == extractions {
			t.Fatalf("same seed on a new epoch was answered from the old epoch's region")
		}
	})

	t.Run("revert keeps the epoch; the seed's dirt is gone", func(t *testing.T) {
		d, ls := newDaemon(1e-9)
		// A patch equal to the incumbent, with nothing left for refine to
		// win either, never beats the incumbent.
		id := &identitySolver{d: d}
		d.regional = id.solve
		apply(ls, rateOp(d, seed, 1))
		apply(ls, rateOp(d, outsider, 0.5)) // less dirt: second in line
		epoch := d.epoch
		checkNow(t, ls)
		st := d.Stats()
		if st.Reverted != 1 || st.Resolves != 0 || d.epoch != epoch || d.dirt[seed] != 0 || id.exterior != 0 {
			t.Fatalf("want one revert on the same epoch, the seed's dirt cleared, no exterior-covered edge: %+v, dirt %v, %d exterior",
				st, d.dirt[seed], id.exterior)
		}
		checkNow(t, ls) // the next boundary checks again, though no op charged anything
		if d.region.seed == seed {
			t.Fatalf("after the revert the check did not move on from seed %d", seed)
		}
		// The old seed, dirty again on the same epoch: a fresh extraction
		// (one entry, and it now belongs to another seed) that must give
		// the region it gave before, priced from its first member.
		apply(ls, rateOp(d, seed, 1000))
		halfway(d)
		checkNow(t, ls)
		if d.region.seed != seed || !slices.Equal(d.region.nodes, region) {
			t.Fatalf("seed %d re-extracted to a different region on the same epoch", seed)
		}
		stopsInside(d)
	})

	t.Run("region dissolved on the live graph", func(t *testing.T) {
		d, ls := newDaemon(1e-9)
		for _, e := range graph.Induced(g, region).GlobalEdge {
			apply(ls, workload.ChurnOp{Kind: workload.OpRemove, U: g.EdgeSource(e), V: g.EdgeTarget(e)})
		}
		clear(d.dirt) // whatever the removals' rescues charged
		d.dirtiest = -1
		apply(ls, rateOp(d, seed, 1))
		epoch := d.epoch
		checkNow(t, ls)
		st := d.Stats()
		if st.Resolves+st.Reverted != 0 || d.epoch != epoch || d.dirt[seed] != 0 {
			t.Fatalf("dissolved region: %+v, dirt[seed] = %v", st, d.dirt[seed])
		}
		// The epoch still has the edges, so the entry still answers.
		apply(ls, rateOp(d, seed, 1))
		checkNow(t, ls)
		if st := d.Stats(); st.RegionExtractions != 1 || st.DriftChecks < 2 {
			t.Fatalf("same seed and epoch after a dissolved re-solve: %+v", st)
		}
	})
}

// The case about nine in ten of churn_local's checks are: the dirtiest
// node stays put (one large rate op pins it) while rate ops land on a
// user outside its region, every Apply is a check and none re-solves.
// Such a check reads the remembered region: no extraction, no allocation.
// Nor does a check after a rate op on a member, which rewinds to that
// member and re-prices the rest of the region from its cached rows.
func TestCheckFromRememberedRegionDoesNotAllocate(t *testing.T) {
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(20_000, 7))
	r := workload.LogDegree(g, 5)
	d, err := New(baseline.Hybrid(g, r), r, Config{
		DriftThreshold: 1e18, CheckEvery: 1, BudgetFraction: -1,
		Metrics: telemetry.NewRegistry(), // online_apply_seconds reads the clock on every op
	})
	if err != nil {
		t.Fatal(err)
	}
	d.maxRegion = 64
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

	// Every check crosses and has no budget, so each prices the region in
	// full; before each, a rate op on the first member with a row edge
	// that costs its rp moves that c* and rewinds the prefix to it.
	d.cfg.DriftThreshold, d.cfg.BudgetFraction = 1e-9, 1e-12
	k := slices.IndexFunc(region, func(u graph.NodeID) bool {
		return slices.ContainsFunc(g.OutNeighbors(u), func(v graph.NodeID) bool {
			return slices.Contains(region, v) && d.r.Prod[u]+1 < d.r.Cons[v]
		})
	})
	if k < 0 {
		t.Fatal("set-up: no member has a row edge that costs its rp")
	}
	member, step := region[k], 1.0
	reprice := func() { // Prod of the member: +1, −1, +1, …
		apply(rateOp(d, member, step))
		step = -step
	}
	reprice() // warms the row cache
	if rg := &d.region; rg.seed != seed || rg.at != len(rg.nodes) {
		t.Fatalf("set-up: remembered seed %d priced %d of %d members, want %d and all", rg.seed, rg.at, len(rg.nodes), seed)
	}
	before = d.Stats()
	if allocs := testing.AllocsPerRun(runs, reprice); allocs != 0 {
		t.Errorf("a check re-pricing from the cached rows allocates %v times", allocs)
	}
	st = d.Stats()
	if st.RegionExtractions != before.RegionExtractions || st.DriftChecks-before.DriftChecks < runs || st.Resolves+st.Reverted != 0 {
		t.Fatalf("the re-pricing ops were not checks of the remembered region without a re-solve: %+v", st)
	}
}

// The kept argmax is the scan's after every op: random charges, many of
// them landing on equal dirt (dyadic amounts over a few nodes), no-op
// charges, and region clears.
func TestDirtiestNodeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 24
	d := &Daemon{dirt: make([]float64, n), dirtiest: -1}
	amounts := []float64{0, -1, 0.25, 0.5, 1, 2}
	ties, clears := 0, 0
	for op := 0; op < 20_000; op++ {
		if rng.Intn(16) == 0 {
			var region []graph.NodeID
			for _, v := range rng.Perm(n)[:1+rng.Intn(8)] {
				region = append(region, graph.NodeID(v))
			}
			d.clearDirt(region)
			clears++
		} else {
			u := graph.NodeID(rng.Intn(n))
			v := u // a rate op charges its user twice
			if rng.Intn(3) > 0 {
				v = graph.NodeID(rng.Intn(n))
			}
			d.charge(u, v, amounts[rng.Intn(len(amounts))])
		}
		want := referenceDirtiest(d)
		if got := d.dirtiestNode(); got != want {
			t.Fatalf("op %d: dirtiest node %d, the scan finds %d; dirt %v", op, got, want, d.dirt)
		}
		if want >= 0 && slices.Index(d.dirt[want+1:], d.dirt[want]) >= 0 {
			ties++
		}
	}
	if ties < 100 || clears == 0 {
		t.Fatalf("%d ops ended on a tie for the most dirt and %d cleared a region; want both", ties, clears)
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

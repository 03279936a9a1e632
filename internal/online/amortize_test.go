package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/refine"
	"piggyback/internal/scenario"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

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
	d, err := New(s, r, Config{Regional: id, DriftThreshold: 1e-9, CheckEvery: 1, MaxRegionNodes: 2, BudgetFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	ob := &patchOracles{f: &findings{by: map[string][]string{}}}
	id.d, d.observe = d, ob.observe
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

// sweep runs the amortizer the way the daemon does: after a refine pass,
// on the obligation counts the pass ends with.
func sweep(a *amortizer, s *core.Schedule, r *workload.Rates, region []graph.EdgeID) amortizeResult {
	_, sup := refine.Pass(s, r)
	return a.run(s, r, region, sup)
}

// spikeFixture is the minimal exterior-amortization instance: celebrity
// 0 pushes directly to 2,3,4 (cheap at rate 1), hub 1 sits between
// them, and then the celebrity's produce rate spikes ×100 while the
// schedule keeps its stale choices. Covering 0→{2,3,4} through hub 1
// needs BOTH supports purchased (0→1 is pull, 1→v are pushes), so the
// refine free-coverage sweep can never touch it — only pooled pricing
// can: one push 0→1 (price 100) amortized across three refunds of 100
// plus three pulls at 3.
func spikeFixture(t *testing.T) (*graph.Graph, *workload.Rates, *core.Schedule) {
	t.Helper()
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1},
		{From: 0, To: 2}, {From: 0, To: 3}, {From: 0, To: 4},
		{From: 1, To: 2}, {From: 1, To: 3}, {From: 1, To: 4},
	})
	r := &workload.Rates{
		Prod: []float64{1, 2, 0, 0, 0},
		Cons: []float64{0, 0.5, 3, 3, 3},
	}
	s := chitchat.Solve(g, r, chitchat.Config{})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The incumbent must have made the stale-at-spike-time choices the
	// fixture is about: direct pushes from 0, no coverage via 1.
	for _, v := range []graph.NodeID{2, 3, 4} {
		e, _ := g.EdgeID(0, v)
		if !s.IsPush(e) || s.IsCovered(e) {
			t.Fatalf("fixture drift: edge 0→%d not a plain push in the incumbent", v)
		}
	}
	// Spike: 0's produce rate goes ×100; the schedule keeps paying it.
	r.Prod[0] = 100
	return g, r, s
}

func TestAmortizePurchasesSharedSupports(t *testing.T) {
	g, r, s := spikeFixture(t)
	before := s.Cost(r)

	// The free-coverage sweep finds nothing: no candidate has both
	// supports already paid.
	if res := refine.Run(s.Clone(), r); res.Recovered != 0 {
		t.Fatalf("refine recovered %d edges on a both-supports-missing instance", res.Recovered)
	}

	res := sweep(new(amortizer), s, r, nil)
	if res.Upgraded != 3 {
		t.Fatalf("Upgraded = %d, want 3", res.Upgraded)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid after amortize: %v", err)
	}
	after := s.Cost(r)
	if got := before - after; !(got > 0) || !floatsClose(got, res.Saved) {
		t.Fatalf("cost dropped %v, Saved reports %v", got, res.Saved)
	}
	// Expected purchase: push 0→1 at 100 + three pulls at 3, refunding
	// three direct pushes at 100: net 300 − 109 = 191.
	if !floatsClose(res.Saved, 191) {
		t.Fatalf("Saved = %v, want 191", res.Saved)
	}
	for _, v := range []graph.NodeID{2, 3, 4} {
		e, _ := g.EdgeID(0, v)
		if !s.IsCovered(e) || s.Hub(e) != 1 {
			t.Fatalf("edge 0→%d not covered via hub 1 after amortize", v)
		}
	}
	// Idempotent: nothing left to buy.
	if again := sweep(new(amortizer), s, r, nil); again.Upgraded != 0 {
		t.Fatalf("second sweep upgraded %d more edges", again.Upgraded)
	}
}

func TestAmortizeRejectsUnprofitableBundle(t *testing.T) {
	// One candidate cannot amortize anything: its refund (100) is below
	// its exclusive support bill (100 + 3), so the sweep must not buy.
	g := graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
	})
	r := &workload.Rates{
		Prod: []float64{1, 2, 0},
		Cons: []float64{0, 0.5, 3},
	}
	s := chitchat.Solve(g, r, chitchat.Config{})
	r.Prod[0] = 100
	before := s.Cost(r)
	if res := sweep(new(amortizer), s, r, nil); res.Upgraded != 0 || res.Saved != 0 {
		t.Fatalf("bought an unprofitable bundle: %+v", res)
	}
	if after := s.Cost(r); after != before {
		t.Fatalf("cost moved %v → %v without an upgrade", before, after)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAmortizeRespectsRegionScope(t *testing.T) {
	g, r, s := spikeFixture(t)
	// Region containing only edge 0→1: no candidate lives there (it is
	// a pull support, not a spiked push), so the sweep must not reach
	// outside it to the 0→v edges.
	e01, _ := g.EdgeID(0, 1)
	if res := sweep(new(amortizer), s, r, []graph.EdgeID{e01}); res.Upgraded != 0 {
		t.Fatalf("region-scoped sweep upgraded %d edges outside the region", res.Upgraded)
	}
	// Region holding the three spiked edges: full upgrade.
	var region []graph.EdgeID
	for _, v := range []graph.NodeID{2, 3, 4} {
		e, _ := g.EdgeID(0, v)
		region = append(region, e)
	}
	if res := sweep(new(amortizer), s, r, region); res.Upgraded != 3 {
		t.Fatalf("region-scoped sweep upgraded %d, want 3", res.Upgraded)
	}
}

// The daemon holds one amortizer across re-solves of differently sized
// graphs. A reused scratch must behave like a fresh one, and must hand the
// per-hub support counters back all zero (the sweep relies on that instead
// of clearing them per hub).
func TestAmortizerScratchReuse(t *testing.T) {
	var a amortizer
	for round := 0; round < 3; round++ {
		_, r, s := spikeFixture(t)
		fresh := s.Clone()
		got, want := sweep(&a, s, r, nil), sweep(new(amortizer), fresh, r, nil)
		if got != want || s.Cost(r) != fresh.Cost(r) {
			t.Fatalf("round %d: reused scratch %+v (cost %v), fresh %+v (cost %v)",
				round, got, s.Cost(r), want, fresh.Cost(r))
		}
		// A smaller graph in between: the scratch shrinks and regrows.
		g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2}})
		small := &workload.Rates{Prod: []float64{100, 2, 0}, Cons: []float64{0, 0.5, 3}}
		hybrid := core.NewSchedule(g)
		hybrid.Finalize(small)
		sweep(&a, hybrid, small, nil)
		for e, c := range a.needers[:cap(a.needers)] {
			if c != 0 {
				t.Fatalf("round %d: needers[%d] = %d after a sweep", round, e, c)
			}
		}
	}
}

// TestAmortizeFlipsAcceptOnIncumbentQualityPatch is the satellite's
// crafted half: the daemon re-solves with a patch of exactly incumbent
// quality (identitySolver), so the accept decision is decided purely by
// patch post-processing. Without the amortization sweep the patch ties
// the incumbent and is reverted; with it, the pooled purchase wins and
// the splice is accepted.
func TestAmortizeFlipsAcceptOnIncumbentQualityPatch(t *testing.T) {
	run := func(disable bool) Stats {
		_, r, s := spikeFixture(t)
		// Un-spike: the daemon must see the spike as a churn op so dirt
		// lands and a re-solve triggers.
		r.Prod[0] = 1
		id := &identitySolver{}
		d, err := New(s, r, Config{
			Regional:       id,
			DriftThreshold: 0.01,
			CheckEvery:     1,
			BudgetFraction: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		id.d, d.noAmortize = d, disable
		if err := d.ApplyTrace([]workload.ChurnOp{{Kind: workload.OpRates, U: 0, Prod: 100, Cons: 0}}); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if id.exterior != 0 {
			t.Fatalf("%d region edges covered through an exterior hub", id.exterior)
		}
		return d.Stats()
	}

	off := run(true)
	if off.Resolves != 0 || off.Reverted == 0 {
		t.Fatalf("without amortization: Resolves=%d Reverted=%d, want the identity patch reverted", off.Resolves, off.Reverted)
	}
	on := run(false)
	if on.Resolves == 0 {
		t.Fatalf("with amortization: patch still reverted (stats %+v)", on)
	}
	if on.Amortized == 0 || !(on.AmortizedSaved > 0) {
		t.Fatalf("accepted splice booked no amortization: %+v", on)
	}
}

// TestAmortizeFlashCrowdTrace is the satellite's end-to-end half: a
// real flashcrowd zoo trace over a Flickr-like graph, CHITCHAT-quality
// incumbent, identity regional solver. Every accept the daemon makes is
// then attributable to patch post-processing; the run without the sweep
// accepts strictly fewer times. The op count is NOT scaled down under
// -short: the first flash crowd whose pooled refund pays for its supports
// arrives past op 600 at either graph size (150 nodes / 1500 ops: 16
// accepts with the sweep against 6 without; 300 / 1500: 12 against 7).
func TestAmortizeFlashCrowdTrace(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(300, 150), 11))
	base := workload.LogDegree(g, 5)
	trace, err := scenario.Default.Generate(scenario.FlashCrowd, g, base,
		scenario.Params{Ops: 1500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool) (Stats, float64) {
		r := freshRates(g, base)
		s := chitchat.Solve(g, r, chitchat.Config{})
		id := &identitySolver{}
		d, err := New(s, r, Config{
			Regional:       id,
			DriftThreshold: 0.05,
			CheckEvery:     8,
			BudgetFraction: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		id.d, d.noAmortize = d, disable
		if err := d.ApplyTrace(trace); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if id.exterior != 0 {
			t.Fatalf("%d region edges covered through an exterior hub", id.exterior)
		}
		return d.Stats(), d.Cost()
	}

	off, _ := run(true)
	on, _ := run(false)
	if on.Resolves <= off.Resolves {
		t.Fatalf("amortization flipped no accepts: on=%d off=%d (on stats %+v)", on.Resolves, off.Resolves, on)
	}
	if on.Amortized == 0 || !(on.AmortizedSaved > 0) {
		t.Fatalf("flash-crowd run accepted %d splices but amortized nothing: %+v", on.Resolves, on)
	}
	// Final costs are deliberately NOT compared: the runs diverge at the
	// first flipped accept (epoch rebase, dirt clearing, backoff reset),
	// and the gate only promises each splice beats ITS incumbent at
	// splice time — which the accept counters above already witness.
}

// The cross-hub hazard (ROADMAP item 0 at the PR 15 anchor): hub 2 covers
// 0→1 resting on the support 0→2, which was push already and is itself a
// candidate paying exactly its push; hub 3 then offers to cover 0→2 and
// clear that push. Piggybacking is not transitive, so taking the offer
// voids 0→1's coverage. The sweep must leave a support it has just
// relied on alone.
func TestAmortizeKeepsSupportsOfEarlierBundles(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 2, To: 1},
		{From: 0, To: 3}, {From: 3, To: 2},
	})
	r := &workload.Rates{Prod: []float64{10, 1, 1, 1}, Cons: []float64{1, 1, 1, 1}}
	s := core.NewSchedule(g)
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		s.SetPush(e)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	before := s.Cost(r)
	res := sweep(new(amortizer), s, r, nil)
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid after amortize: %v", err)
	}
	e01, _ := g.EdgeID(0, 1)
	e02, _ := g.EdgeID(0, 2)
	if res.Upgraded != 1 || !s.IsCovered(e01) || s.Hub(e01) != 2 || !s.IsPush(e02) || s.IsCovered(e02) {
		t.Fatalf("want exactly 0→1 covered through hub 2 on a standing push 0→2, got %+v", res)
	}
	if got := before - s.Cost(r); !floatsClose(got, res.Saved) || !floatsClose(got, 9) {
		t.Fatalf("cost dropped %v, Saved reports %v, want 9", got, res.Saved)
	}
}

// tieHeavySchedule draws a random graph under tie-heavy rates (so many
// supports are already paid and many bundles break even) with a valid
// schedule holding every kind of edge: hybrid or CHITCHAT, then a random
// share of edges forced to the dearer direct side or to both sides, as
// stale choices after a rate change look. Half the draws come with a
// region, a 2-hop neighbourhood's induced edges; the rest with nil.
func tieHeavySchedule(t *testing.T, seed int64) (*core.Schedule, *workload.Rates, []graph.EdgeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graphgen.Social(graphgen.Config{
		Nodes: 5 + rng.Intn(60), AvgFollows: 2 + rng.Intn(6),
		TriadProb: rng.Float64(), Reciprocity: rng.Float64(), Seed: seed,
	})
	n := g.NumNodes()
	r := &workload.Rates{Prod: make([]float64, n), Cons: make([]float64, n)}
	for u := 0; u < n; u++ {
		r.Prod[u] = float64(int(1) << rng.Intn(4))
		r.Cons[u] = float64(int(1) << rng.Intn(3))
	}
	s := core.NewSchedule(g)
	if rng.Intn(2) == 0 {
		s = chitchat.Solve(g, r, chitchat.Config{Workers: 1})
	}
	s.Finalize(r)
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		switch rng.Intn(6) {
		case 0:
			s.SetPush(e)
		case 1:
			s.SetPull(e)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("seed %d: input invalid: %v", seed, err)
	}
	var region []graph.EdgeID
	if rng.Intn(2) == 0 {
		// An empty region stays nil, which sweeps the whole graph.
		if ids := graph.Induced(g, graph.KHop(g, []graph.NodeID{graph.NodeID(rng.Intn(n))}, 2, 0)).GlobalEdge; len(ids) > 0 {
			region = ids
		}
	}
	return s, r, region
}

// Property: on random valid schedules under tie-heavy rates, refine then
// amortize leaves a valid schedule, never a dearer one, and books exactly
// the cost it removed.
func TestQuickAmortizeSafety(t *testing.T) {
	upgraded := 0
	f := func(seed int64) bool {
		s, r, region := tieHeavySchedule(t, seed)
		before := s.Cost(r)
		refined, sup := refine.Pass(s, r)
		res := new(amortizer).run(s, r, region, sup)
		upgraded += res.Upgraded
		if err := s.Validate(); err != nil {
			t.Logf("seed %d: invalid after amortize: %v", seed, err)
			return false
		}
		after := s.Cost(r)
		return after <= before && !(res.Saved < 0) && floatsClose(before-refined.Saved-res.Saved, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	if upgraded == 0 {
		t.Fatal("no sweep bought anything; the property proved nothing")
	}
}

// referenceAmortize is the sweep amortizer.run replaced, kept as its
// oracle: per candidate, a merge walk over out(u) ∩ in(v) to discover its
// hubs, and a drop loop that restarts from the first candidate after every
// single drop. run must buy the same bundles, book the same Saved to the
// bit, and leave the same flags, hubs and pinned counts.
func referenceAmortize(s *core.Schedule, r *workload.Rates, region []graph.EdgeID, pinned []int32) amortizeResult {
	g := s.Graph()
	ends := make([]int32, g.NumNodes())
	var found []amortCand
	consider := func(e graph.EdgeID, u, v graph.NodeID) {
		if s.IsCovered(e) || pinned[e] > 0 {
			return
		}
		push := s.IsPush(e)
		if push == s.IsPull(e) {
			return
		}
		refund := r.Cons[v]
		if push {
			refund = r.Prod[u]
		}
		outU := g.OutNeighbors(u)
		loU, _ := g.OutEdgeRange(u)
		inV := g.InNeighbors(v)
		idsV := g.InEdgeIDs(v)
		i, j := 0, 0
		for i < len(outU) && j < len(inV) {
			switch {
			case outU[i] < inV[j]:
				i++
			case outU[i] > inV[j]:
				j++
			default:
				if w := outU[i]; w != u && w != v {
					ends[w]++
					found = append(found, amortCand{
						e: e, up: loU + graph.EdgeID(i), down: idsV[j],
						hub: w, u: u, refund: refund, push: push,
					})
				}
				i++
				j++
			}
		}
	}
	if region == nil {
		g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
			consider(e, u, v)
			return true
		})
	} else {
		for _, e := range region {
			consider(e, g.EdgeSource(e), g.EdgeTarget(e))
		}
	}

	all := make([]amortCand, len(found))
	sum := int32(0)
	for w, cnt := range ends {
		ends[w] = sum
		sum += cnt
	}
	for _, c := range found {
		all[ends[c.hub]] = c
		ends[c.hub]++
	}
	pushPrice := func(c amortCand) float64 {
		if s.IsPush(c.up) {
			return 0
		}
		return r.Prod[c.u]
	}
	pullPrice := func(e graph.EdgeID) float64 {
		if s.IsPull(e) {
			return 0
		}
		return r.Cons[g.EdgeTarget(e)]
	}
	needers := make([]int32, g.NumEdges())

	var res amortizeResult
	lo := int32(0)
	for w, hi := range ends {
		if lo == hi {
			continue
		}
		cands := all[lo:lo]
		for _, c := range all[lo:hi] {
			if !s.IsCovered(c.e) && pinned[c.e] == 0 {
				cands = append(cands, c)
			}
		}
		lo = hi
		for _, c := range cands {
			if pushPrice(c) > 0 {
				needers[c.up]++
			}
			if pullPrice(c.down) > 0 {
				needers[c.down]++
			}
		}
		for dropped := true; dropped; {
			dropped = false
			for i, c := range cands {
				pUp, pDown := pushPrice(c), pullPrice(c.down)
				excl := 0.0
				if pUp > 0 && needers[c.up] == 1 {
					excl += pUp
				}
				if pDown > 0 && needers[c.down] == 1 {
					excl += pDown
				}
				if c.refund <= excl {
					if pUp > 0 {
						needers[c.up]--
					}
					if pDown > 0 {
						needers[c.down]--
					}
					cands = append(cands[:i], cands[i+1:]...)
					dropped = true
					break
				}
			}
		}
		refundSum, priceSum := 0.0, 0.0
		for _, c := range cands {
			refundSum += c.refund
			if p := pushPrice(c); p > 0 && needers[c.up] > 0 {
				needers[c.up] = 0
				priceSum += p
			}
			if p := pullPrice(c.down); p > 0 && needers[c.down] > 0 {
				needers[c.down] = 0
				priceSum += p
			}
		}
		if refundSum <= priceSum {
			continue
		}
		for _, c := range cands {
			if pushPrice(c) > 0 {
				s.SetPush(c.up)
			}
			if pullPrice(c.down) > 0 {
				s.SetPull(c.down)
			}
		}
		for _, c := range cands {
			if c.push {
				s.ClearPush(c.e)
			} else {
				s.ClearPull(c.e)
			}
			s.SetCovered(c.e, graph.NodeID(w))
			pinned[c.up]++
			pinned[c.down]++
			res.Upgraded++
		}
		res.Saved += refundSum - priceSum
	}
	return res
}

// checkAmortizeAgainstReference refines two clones of s, runs the sweep
// on one and the reference on the other, and reports any difference in
// the result (Saved to the bit), in flags or hub on any edge, or in the
// pinned counts; and a support table the sweep ends with that differs from
// a fresh walk's. It returns what was upgraded.
func checkAmortizeAgainstReference(s *core.Schedule, r *workload.Rates, region []graph.EdgeID) (int, error) {
	got, want := s.Clone(), s.Clone()
	_, sup := refine.Pass(got, r)
	_, refSup := refine.Pass(want, r)
	res := new(amortizer).run(got, r, region, sup)
	ref := referenceAmortize(want, r, region, refSup.Pinned)
	if res.Upgraded != ref.Upgraded || math.Float64bits(res.Saved) != math.Float64bits(ref.Saved) {
		return 0, fmt.Errorf("sweep returned %+v, reference %+v", res, ref)
	}
	for e := graph.EdgeID(0); int(e) < s.Graph().NumEdges(); e++ {
		if got.IsPush(e) != want.IsPush(e) || got.IsPull(e) != want.IsPull(e) ||
			got.IsCovered(e) != want.IsCovered(e) || got.Hub(e) != want.Hub(e) {
			return 0, fmt.Errorf("edge %d: sweep left push=%v pull=%v hub=%d, reference push=%v pull=%v hub=%d", e,
				got.IsPush(e), got.IsPull(e), got.Hub(e), want.IsPush(e), want.IsPull(e), want.Hub(e))
		}
	}
	if !slices.Equal(sup.Pinned, refSup.Pinned) {
		return 0, errors.New("the sweep's pinned counts differ from the reference's")
	}
	if walked := got.TakeSupports(); !reflect.DeepEqual(sup, walked) {
		return 0, errors.New("the support table the sweep ends with differs from a fresh walk's")
	}
	return res.Upgraded, nil
}

// The sweep against the one it replaced, over random valid schedules with
// tie-heavy rates: many bundles break even, so drops cascade and the
// removal order is exercised. The rates are scaled by 0.1, ties kept, so
// that sums are inexact and a bundle summed in another order shows in the
// bits of Saved.
func TestAmortizeMatchesReference(t *testing.T) {
	upgraded := 0
	f := func(seed int64) bool {
		s, r, region := tieHeavySchedule(t, seed)
		for u := range r.Prod {
			r.Prod[u] *= 0.1
			r.Cons[u] *= 0.1
		}
		n, err := checkAmortizeAgainstReference(s, r, region)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		upgraded += n
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if upgraded == 0 {
		t.Fatal("no sweep bought anything; the comparison proved nothing")
	}
}

// The sweep against the reference on every re-solve of every zoo cell,
// cut solves included (the observed runs, zoo_test.go).
func TestAmortizeMatchesReferenceOnZoo(t *testing.T) {
	upgraded, truncated := 0, 0
	for _, r := range zooReplays() {
		noFindings(t, r.observed, oAmortize)
		upgraded += r.observed.upgraded
		truncated += r.observed.truncated
		t.Logf("%s: %d re-solves checked, %d of them cut, %d edges upgraded", r.cell.name,
			r.observed.stats.Resolves+r.observed.stats.Reverted, r.observed.truncated, r.observed.upgraded)
	}
	if upgraded == 0 || truncated == 0 {
		t.Fatalf("%d edges upgraded, %d cut patches checked: the comparison proved too little", upgraded, truncated)
	}
}

// referencePass is the sweep refine.Pass replaced, kept as its oracle: the
// full merge walk over out(u) ∩ in(v) of every candidate edge against the
// live flags, with pinned computed by its own closure. Pass must leave the
// same flags and hubs on every edge and return the same Result.
func referencePass(s *core.Schedule, r *workload.Rates) refine.Result {
	g := s.Graph()

	// pinned[e] counts obligations on e's flags: covered edges whose hub
	// support is e. An edge with pinned == 0 and no coverage role may have
	// its direct flags cleared.
	pinned := make([]int32, g.NumEdges())
	pin := func(u, w, v graph.NodeID) {
		if up, ok := g.EdgeID(u, w); ok {
			pinned[up]++
		}
		if down, ok := g.EdgeID(w, v); ok {
			pinned[down]++
		}
	}
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if s.IsCovered(e) {
			pin(u, s.Hub(e), v)
		}
		return true
	})

	var res refine.Result
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		// Candidates: edges paying a direct cost that nothing depends on.
		if s.IsCovered(e) || pinned[e] > 0 {
			return true
		}
		push := s.IsPush(e)
		pull := s.IsPull(e)
		if push == pull {
			// Neither (invalid input, leave alone) or both (the edge is
			// doing double duty; clearing one side is a different
			// optimization with dependency subtleties — skip).
			return true
		}
		// Look for a hub w with u → w already pushed and w → v already
		// pulled: walk out(u) ∩ in(v).
		outU := g.OutNeighbors(u)
		loU, _ := g.OutEdgeRange(u)
		inV := g.InNeighbors(v)
		idsV := g.InEdgeIDs(v)
		i, j := 0, 0
		for i < len(outU) && j < len(inV) {
			switch {
			case outU[i] < inV[j]:
				i++
			case outU[i] > inV[j]:
				j++
			default:
				w := outU[i]
				up := loU + graph.EdgeID(i)
				down := idsV[j]
				if w != u && w != v && s.IsPush(up) && s.IsPull(down) {
					// Refund the direct cost and pin the new supports.
					if push {
						res.Saved += r.Prod[u]
						s.ClearPush(e)
					} else {
						res.Saved += r.Cons[v]
						s.ClearPull(e)
					}
					s.SetCovered(e, w)
					pinned[up]++
					pinned[down]++
					res.Recovered++
					return true // next edge
				}
				i++
				j++
			}
		}
		return true
	})
	return res
}

// checkPassAgainstReference runs refine.Pass and referencePass on clones of
// s and reports any difference in the Result or in flags or hub on any
// edge, and a second pass that recovers anything. The support table s
// holds (a splice's repair walk hands one over) and the one the pass ends
// with are held against fresh walks; s keeps its table. It returns what
// was recovered.
func checkPassAgainstReference(s *core.Schedule, r *workload.Rates) (int, error) {
	handed := s.TakeSupports()
	s.KeepSupports(handed)
	if walked := s.Clone().TakeSupports(); !reflect.DeepEqual(handed, walked) {
		return 0, errors.New("the support table the splice handed over differs from a fresh walk's")
	}
	got, want := s.Clone(), s.Clone()
	res, sup := refine.Pass(got, r)
	if ref := referencePass(want, r); res != ref {
		return 0, fmt.Errorf("pass returned %+v, reference %+v", res, ref)
	}
	for e := graph.EdgeID(0); int(e) < want.Graph().NumEdges(); e++ {
		if got.IsPush(e) != want.IsPush(e) || got.IsPull(e) != want.IsPull(e) ||
			got.IsCovered(e) != want.IsCovered(e) || got.Hub(e) != want.Hub(e) {
			return 0, fmt.Errorf("edge %d: pass left push=%v pull=%v hub=%d, reference push=%v pull=%v hub=%d", e,
				got.IsPush(e), got.IsPull(e), got.Hub(e), want.IsPush(e), want.IsPull(e), want.Hub(e))
		}
	}
	if walked := got.TakeSupports(); !reflect.DeepEqual(sup, walked) {
		return 0, errors.New("the support table a pass ends with differs from a fresh walk's")
	}
	if again, _ := refine.Pass(got, r); again.Recovered != 0 || again.Saved != 0 {
		return 0, fmt.Errorf("second pass recovered %+v after the first recovered %+v", again, res)
	}
	return res.Recovered, nil
}

// refine.Pass against the sweep it replaced, over random valid schedules:
// the hybrid baseline at push/pull-mixing rates, converged and truncated
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
		n, err := checkPassAgainstReference(s, r)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		recovered += n
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if recovered == 0 {
		t.Fatal("no schedule had anything to recover; the comparison proved nothing")
	}
}

// refine.Pass against the reference on every spliced patch of every zoo
// cell, cut solves included (the observed runs, zoo_test.go).
func TestPassMatchesReferenceSweepOnZoo(t *testing.T) {
	recovered, truncated := 0, 0
	for _, r := range zooReplays() {
		noFindings(t, r.observed, oRefine)
		recovered += r.observed.recovered
		truncated += r.observed.truncated
		t.Logf("%s: %d re-solves checked, %d of them cut, %d edges recovered", r.cell.name,
			r.observed.stats.Resolves+r.observed.stats.Reverted, r.observed.truncated, r.observed.recovered)
	}
	if recovered == 0 || truncated == 0 {
		t.Fatalf("%d edges recovered, %d cut patches checked: the comparison proved too little", recovered, truncated)
	}
}

func floatsClose(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

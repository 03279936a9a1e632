package online

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/refine"
	"piggyback/internal/scenario"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

// identitySolver returns the base schedule unchanged — a patch of
// exactly CHITCHAT-incumbent quality, so any accept the daemon makes
// with it is attributable to post-processing alone.
type identitySolver struct{}

func (identitySolver) Name() string          { return "identity" }
func (identitySolver) SupportsRegions() bool { return true }
func (identitySolver) Solve(ctx context.Context, p solver.Problem) (*solver.Result, error) {
	return &solver.Result{
		Schedule: p.Base.Clone(),
		Report:   solver.Report{Solver: "identity", Iterations: 1},
	}, nil
}

// sweep runs the amortizer the way the daemon does: after a refine pass,
// on the obligation counts the pass ends with.
func sweep(a *amortizer, s *core.Schedule, r *workload.Rates, region []graph.EdgeID) amortizeResult {
	_, pinned := refine.Pass(s, r)
	return a.run(s, r, region, pinned)
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
		d, err := New(s, r, Config{
			Regional:       identitySolver{},
			DriftThreshold: 0.01,
			CheckEvery:     1,
			BudgetFraction: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.noAmortize = disable
		if err := d.Apply(workload.ChurnOp{Kind: workload.OpRates, U: 0, Prod: 100, Cons: 0}); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
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
		d, err := New(s, r, Config{
			Regional:       identitySolver{},
			DriftThreshold: 0.05,
			CheckEvery:     8,
			BudgetFraction: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.noAmortize = disable
		if err := d.ApplyTrace(trace); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
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

// Property: on random valid schedules under tie-heavy rates (so many
// supports are already paid and many bundles break even), refine then
// amortize leaves a valid schedule, never a dearer one, and books exactly
// the cost it removed.
func TestQuickAmortizeSafety(t *testing.T) {
	upgraded := 0
	f := func(seed int64) bool {
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
		// A valid schedule with every kind of edge: hybrid or CHITCHAT,
		// then a random share of edges forced to the dearer direct side
		// or to both sides, as stale choices after a rate change look.
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
			region = graph.InducedEdgeIDs(g, graph.KHop(g, []graph.NodeID{graph.NodeID(rng.Intn(n))}, 2, 0))
		}
		before := s.Cost(r)
		refined, pinned := refine.Pass(s, r)
		res := new(amortizer).run(s, r, region, pinned)
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

func floatsClose(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

package nosy

import (
	"context"
	"fmt"
	"testing"

	"piggyback/internal/bitset"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/workload"
)

// dirtyCase is one solve the dirty-propagation tests run; eval builds its
// evaluator afresh (empty schedule, or a base with the region cleared).
type dirtyCase struct {
	name string
	g    *graph.Graph
	cfg  Config
	eval func() *Evaluator
}

// dirtyCases spans what the propagation rule has to hold under: sparse
// Twitter-like, clustered Flickr-like and streamed dense graphs (every
// one large enough that round 0 fans out at Workers 4), five seeds, full
// and restricted solves, one and four workers, and a MaxCrossEdges of 3,
// which truncates most intersections on these graphs.
func dirtyCases(seeds int64) []dirtyCase {
	var out []dirtyCase
	for seed := int64(1); seed <= seeds; seed++ {
		graphs := []struct {
			kind string
			g    *graph.Graph
		}{
			{"flickr", graphgen.Social(graphgen.FlickrLike(scaled(120, 70), seed))},
			{"twitter", graphgen.Social(graphgen.TwitterLike(scaled(260, 150), seed))},
			{"stream", graphgen.StreamSocial(graphgen.FlickrLikeEdges(scaled(5000, 2400), seed))},
		}
		for _, gk := range graphs {
			g := gk.g
			r := workload.LogDegree(g, 5)
			// Capped so that a broken rule fails in the oracle, not by never
			// converging here: a round that commits covers a new edge.
			base := Solve(g, r, Config{Workers: 1, MaxIterations: g.NumEdges() + 1}).Schedule
			nodes := graph.KHop(g, []graph.NodeID{1, 7, graph.NodeID(g.NumNodes() - 1)}, 2, g.NumNodes()/2)
			region := graph.InducedEdgeIDs(g, nodes)
			for _, cfg := range []Config{{Workers: 1}, {Workers: 4, MaxCrossEdges: 3}} {
				cfg := cfg
				name := fmt.Sprintf("%s/seed%d/w%d/mx%d", gk.kind, seed, cfg.Workers, cfg.MaxCrossEdges)
				out = append(out,
					dirtyCase{name + "/full", g, cfg,
						func() *Evaluator { return NewEvaluator(g, r, cfg) }},
					dirtyCase{name + "/restricted", g, cfg,
						func() *Evaluator { return newRestrictedEvaluator(g, r, cfg, base, region) }})
			}
		}
	}
	return out
}

// cleanSlotsMatchFresh is the exactness oracle: every hub edge NOT in the
// dirty set must hold, in its cached slot, exactly what evaluating it now
// returns — same candidacy, bit-identical gain, same producers in the
// same order. It goes through EvalCandidateReuse itself, so an edit that
// makes an evaluation read a flag Commit does not propagate shows up here
// as a stale clean slot.
func cleanSlotsMatchFresh(st *state) error {
	var fresh Candidate
	for e := 0; e < st.ev.g.NumEdges(); e++ {
		if st.dirty.Test(e) {
			continue
		}
		ok := st.ev.EvalCandidateReuse(graph.EdgeID(e), &fresh)
		if ok != st.isCand.Test(e) {
			return fmt.Errorf("clean hub edge %d: cached candidacy %v, fresh %v", e, st.isCand.Test(e), ok)
		}
		if ok && !sameCandidate(*st.cands[e], fresh) {
			return fmt.Errorf("clean hub edge %d: cached %+v, fresh %+v", e, *st.cands[e], fresh)
		}
	}
	return nil
}

// TestDirtyPropagationExact runs the production round loop with the
// oracle between rounds (OnIteration fires on the solve goroutine after a
// round's commits are applied and the next round's dirty set is final).
func TestDirtyPropagationExact(t *testing.T) {
	for _, tc := range dirtyCases(5) {
		var st *state
		cfg := tc.cfg
		rounds, clean := 0, 0
		cfg.OnIteration = func(IterationStat) {
			rounds++
			clean += st.dirty.Len() - st.dirty.Count()
			if err := cleanSlotsMatchFresh(st); err != nil {
				t.Fatalf("%s round %d: %v", tc.name, rounds, err)
			}
		}
		st = newState(tc.eval(), cfg)
		if _, err := st.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if rounds < 2 || clean == 0 {
			t.Fatalf("%s: %d rounds, %d clean slots checked; the oracle never bit", tc.name, rounds, clean)
		}
	}
}

// parentRuleDirty is the rule this package used before exact propagation:
// every in- and out-edge of a commit's W and Y. The commits of the round
// just run are read off the schedule: each covered at least one edge
// x → Y through hub W that was not covered before.
func parentRuleDirty(g *graph.Graph, ev *Evaluator, wasCovered, scratch *bitset.Set) int {
	scratch.Reset()
	mark := func(v graph.NodeID) {
		lo, hi := g.OutEdgeRange(v)
		for e := lo; e < hi; e++ {
			scratch.Set(int(e))
		}
		for _, e := range g.InEdgeIDs(v) {
			scratch.Set(int(e))
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		if ev.sched.IsCovered(id) && !wasCovered.Test(e) {
			wasCovered.Set(e)
			mark(ev.sched.Hub(id))
			mark(g.EdgeTarget(id))
		}
	}
	return scratch.Count()
}

// TestDirtyPropagationMatchesFullSweep runs every case next to a
// reference that re-prices every hub edge every round: the two must agree
// round by round on every IterationStat field but Dirty and on the
// running cost to the bit, end in byte-identical schedules, and the exact
// rule may never price more than the rule it replaced would have. The
// reference is O(m) per round, so -short (which CI runs under -race)
// takes two of the five seeds.
func TestDirtyPropagationMatchesFullSweep(t *testing.T) {
	for _, tc := range dirtyCases(int64(scaled(5, 2))) {
		m := tc.g.NumEdges()
		st, ref := newState(tc.eval(), tc.cfg), newState(tc.eval(), tc.cfg)
		wasCovered, scratch := bitset.New(m), bitset.New(m)
		for e := 0; e < m; e++ {
			if st.ev.sched.IsCovered(graph.EdgeID(e)) {
				wasCovered.Set(e)
			}
		}
		bound, saved := st.dirty.Count(), 0
		for round := 0; ; round++ {
			got := st.iterate()
			ref.dirty.SetAll()
			want := ref.iterate()
			if got.Dirty > bound {
				t.Fatalf("%s round %d: priced %d hub edges, the neighbourhood rule prices %d", tc.name, round, got.Dirty, bound)
			}
			saved += bound - got.Dirty
			got.Dirty, want.Dirty = 0, 0
			if got != want || st.ev.Cost() != ref.ev.Cost() {
				t.Fatalf("%s round %d: %+v cost %v, full sweep %+v cost %v",
					tc.name, round, got, st.ev.Cost(), want, ref.ev.Cost())
			}
			if got.FullCommits+got.PartialCommits == 0 {
				break
			}
			bound = parentRuleDirty(tc.g, st.ev, wasCovered, scratch)
		}
		if !schedulesEqual(st.ev.sched, ref.ev.sched, m) {
			t.Fatalf("%s: schedule differs from the full sweep's", tc.name)
		}
		if saved == 0 {
			t.Fatalf("%s: exact propagation never priced fewer edges than the neighbourhood rule", tc.name)
		}
	}
}

// What a solve prices is a count, not a time: Σ IterationStat.Dirty (hub
// edges priced, summed over rounds) and the number of rounds repeat
// exactly and may not depend on the worker count. Full size is the repo
// benchmark's solve_batch graph, where a commit's endpoints have
// hundreds of neighbours and the rule for what a commit dirties decides
// a round's cost (the neighbourhood rule priced 1 544 009, DESIGN.md §4).
func TestEvalsAndRoundsPinned(t *testing.T) {
	edges, wantEvals, wantRounds := 60_000, 350_341, 121
	if testing.Short() {
		edges, wantEvals, wantRounds = 20_000, 118_228, 85
	}
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(edges, 7))
	r := workload.LogDegree(g, 5)
	for _, workers := range []int{1, 2} {
		res := Solve(g, r, Config{Workers: workers})
		evals := 0
		for _, it := range res.Iterations {
			evals += it.Dirty
		}
		if evals != wantEvals || len(res.Iterations) != wantRounds {
			t.Errorf("Workers %d: %d evals in %d rounds, pinned %d in %d",
				workers, evals, len(res.Iterations), wantEvals, wantRounds)
		}
	}
}

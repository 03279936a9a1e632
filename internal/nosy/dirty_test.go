package nosy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"piggyback/internal/bitset"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/schedio"
	"piggyback/internal/workload"
)

// dirtyCase is one solve the dirty-propagation tests run.
type dirtyCase struct {
	name string
	g    *graph.Graph
	r    *workload.Rates
	cfg  Config
}

// dirtyCases spans what the propagation rule has to hold under: sparse
// Twitter-like, clustered Flickr-like and streamed dense graphs (every
// one large enough that round 0 fans out at Workers 4), five seeds, one
// and four workers, and a MaxCrossEdges of 3, which truncates most
// intersections on these graphs.
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
			r := workload.LogDegree(gk.g, 5)
			for _, cfg := range []Config{{Workers: 1}, {Workers: 4, MaxCrossEdges: 3}} {
				name := fmt.Sprintf("%s/seed%d/w%d/mx%d", gk.kind, seed, cfg.Workers, cfg.MaxCrossEdges)
				out = append(out, dirtyCase{name, gk.g, r, cfg})
			}
		}
	}
	return out
}

// cleanSlotsMatchFresh is the exactness oracle: every hub edge NOT in the
// dirty set must hold, in its span and gain slot, exactly what a fresh,
// never-compacted evaluation returns now — same candidacy, bit-identical
// gain, same producers in the same order (slotMatchesFresh), given every
// hub edge's intersection ixs. An edit that makes an evaluation read a
// flag Commit does not propagate, or compact on a different filter, shows
// up here as a stale clean slot.
func cleanSlotsMatchFresh(st *state, ixs []producers) error {
	for e := 0; e < st.ev.g.NumEdges(); e++ {
		if st.dirty.Test(e) {
			continue
		}
		if err := slotMatchesFresh(st.ev, graph.EdgeID(e), ixs[e], st.isCand.Test(e), st.gain[e]); err != nil {
			return fmt.Errorf("clean %v", err)
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
		var ixs []producers
		cfg := tc.cfg
		rounds, clean := 0, 0
		cfg.OnIteration = func(IterationStat) {
			rounds++
			clean += tc.g.NumEdges() - len(st.dirty.AppendSet(nil))
			if err := cleanSlotsMatchFresh(st, ixs); err != nil {
				t.Fatalf("%s round %d: %v", tc.name, rounds, err)
			}
		}
		ev := NewEvaluator(tc.g, tc.r, cfg)
		ixs = make([]producers, tc.g.NumEdges())
		for e := range ixs {
			ixs[e] = intersection(ev, graph.EdgeID(e), crossBound(cfg))
		}
		st = newState(ev, cfg)
		if err := st.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if rounds < 2 || clean == 0 {
			t.Fatalf("%s: %d rounds, %d clean slots checked; the oracle never bit", tc.name, rounds, clean)
		}
	}
}

// TestCompactedSpansMatchFilter checks the compaction itself after every
// round: every span is an ordered subsequence of its build-time
// intersection (CommonInEdges under the same bound), and an uncovered hub
// edge's span, filtered under the current flags, is that intersection
// filtered under them — compaction never dropped a producer that could
// pass again. A clean uncovered span is that filtered intersection
// itself. Round 0 evaluates every hub edge, so every span has been
// compacted at least once. Workers 2 fans evaluations out on these
// graphs, so -race sees workers compacting the shared cache.
func TestCompactedSpansMatchFilter(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(scaled(5000, 2400), seed))
		r := workload.LogDegree(g, 5)
		for _, cfg := range []Config{{Workers: 1, MaxCrossEdges: 3}, {Workers: 2, MaxCrossEdges: 3}, {Workers: 2}} {
			name := fmt.Sprintf("seed%d/w%d/mx%d", seed, cfg.Workers, cfg.MaxCrossEdges)
			var st *state
			rounds, dropped := 0, 0
			cfg.OnIteration = func(IterationStat) {
				rounds++
				ev := st.ev
				for e := 0; e < g.NumEdges(); e++ {
					he := graph.EdgeID(e)
					ixs, ixw, ixy := g.CommonInEdges(ev.src[he], g.EdgeTarget(he), crossBound(cfg), nil, nil, nil)
					xs, xw, xy := ev.structs.get(he)
					if !isSubsequence(xs, xw, xy, ixs, ixw, ixy) {
						t.Fatalf("%s round %d: hub edge %d: span %v %v %v is no ordered subsequence of %v %v %v",
							name, rounds, e, xs, xw, xy, ixs, ixw, ixy)
					}
					dropped += len(ixs) - len(xs)
					if ev.sched.IsCovered(he) {
						continue
					}
					want := filtered(ev, ixs, ixw, ixy)
					if got := filtered(ev, xs, xw, xy); !want.equal(got.xs, got.xw, got.xy) {
						t.Fatalf("%s round %d: hub edge %d: span filters to %+v, intersection to %+v", name, rounds, e, got, want)
					}
					if !st.dirty.Test(e) && !want.equal(xs, xw, xy) {
						t.Fatalf("%s round %d: clean hub edge %d: span %v %v %v, filtered intersection %+v", name, rounds, e, xs, xw, xy, want)
					}
				}
			}
			st = newState(NewEvaluator(g, r, cfg), cfg)
			if err := st.run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if rounds < 2 || dropped == 0 {
				t.Fatalf("%s: %d rounds, %d producers dropped; the oracle never bit", name, rounds, dropped)
			}
		}
	}
}

// isSubsequence reports whether the triples (xs, xw, xy) appear in
// (ixs, ixw, ixy) in the same order.
func isSubsequence(xs []graph.NodeID, xw, xy []graph.EdgeID, ixs []graph.NodeID, ixw, ixy []graph.EdgeID) bool {
	i := 0
	for j := range ixs {
		if i < len(xs) && xs[i] == ixs[j] && xw[i] == ixw[j] && xy[i] == ixy[j] {
			i++
		}
	}
	return i == len(xs)
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
	return len(scratch.AppendSet(nil))
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
		st, ref := newState(NewEvaluator(tc.g, tc.r, tc.cfg), tc.cfg), newState(NewEvaluator(tc.g, tc.r, tc.cfg), tc.cfg)
		wasCovered, scratch := bitset.New(m), bitset.New(m)
		bound, saved := len(st.dirty.AppendSet(nil)), 0
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
		_, rounds := solveTraced(g, r, Config{Workers: workers})
		evals := 0
		for _, it := range rounds {
			evals += it.Dirty
		}
		if evals != wantEvals || len(rounds) != wantRounds {
			t.Errorf("Workers %d: %d evals in %d rounds, pinned %d in %d",
				workers, evals, len(rounds), wantEvals, wantRounds)
		}
	}
}

// TestNosySchedulesPinned holds the solve to the schedule bytes it
// produced at commit e099d50, before the per-round record left its
// result: each literal is sha256(schedio.Write(schedule)) taken there, on
// the graph and rates TestEvalsAndRoundsPinned solves. Both worker counts
// must land on them.
func TestNosySchedulesPinned(t *testing.T) {
	edges, want := 60_000, "1b1c232ef12b4a8a3a32ffe94052e3e49ca06c87c454d79b9ff1d6c9131b1178"
	if testing.Short() {
		edges, want = 20_000, "a8ad54a02ec3fbc36bfb05ffe2f71f0524fd03873006f68c284c36c3fd19033e"
	}
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(edges, 7))
	r := workload.LogDegree(g, 5)
	for _, workers := range []int{1, 2} {
		var buf bytes.Buffer
		if err := schedio.Write(&buf, Solve(g, r, Config{Workers: workers})); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("Workers %d: schedule digest %s, pinned %s", workers, got, want)
		}
	}
}

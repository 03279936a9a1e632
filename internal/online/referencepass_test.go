package online

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/refine"
	"piggyback/internal/workload"
)

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
// edge, and a second pass that recovers anything. handed, the support
// table s comes with (a splice's repair walk hands one over), and the one
// the pass ends with are held against fresh walks; neither s nor handed is
// modified. It returns what was recovered.
func checkPassAgainstReference(s *core.Schedule, handed core.Supports, r *workload.Rates) (int, error) {
	if walked := core.WalkSupports(s); !reflect.DeepEqual(handed, walked) {
		return 0, errors.New("the support table the splice handed over differs from a fresh walk's")
	}
	got, want := s.Clone(), s.Clone()
	sup := core.Supports{Pinned: slices.Clone(handed.Pinned), Up: slices.Clone(handed.Up), Down: slices.Clone(handed.Down)}
	res := refine.Pass(got, r, sup)
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
	if walked := core.WalkSupports(got); !reflect.DeepEqual(sup, walked) {
		return 0, errors.New("the support table a pass ends with differs from a fresh walk's")
	}
	if again := refine.Pass(got, r, sup); again.Recovered != 0 || again.Saved != 0 {
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
			s = nosy.Solve(g, r, nosy.Config{})
		default:
			// A solve cut after one or two rounds: cancelling from
			// OnIteration stops it at that round boundary.
			rounds := 1 + rng.Intn(2)
			ctx, cancel := context.WithCancel(context.Background())
			s, _ = nosy.SolveCtx(ctx, g, r, nosy.Config{OnIteration: func(it nosy.IterationStat) {
				if it.Iteration+1 == rounds {
					cancel()
				}
			}})
			cancel()
		}
		for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
			if s.IsCovered(e) && rng.Intn(3) == 0 {
				// Uncover e and keep its direct flags.
				push, pull := s.IsPush(e), s.IsPull(e)
				s.ClearEdge(e)
				if push {
					s.SetPush(e)
				}
				if pull {
					s.SetPull(e)
				}
			}
		}
		s.Finalize(r) // the hybrid rule, on the edges just uncovered
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: input invalid: %v", seed, err)
		}
		n, err := checkPassAgainstReference(s, core.WalkSupports(s), r)
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

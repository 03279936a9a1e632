package shard

import (
	"context"
	"fmt"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/partition"
	"piggyback/internal/workload"
)

// referenceReconcileCut is reconcileCut as a two-pointer merge of the
// sorted lists out(u) and in(v), the form the stamped scan replaced; it
// is the oracle the stamped form must match.
func referenceReconcileCut(s *core.Schedule, g *graph.Graph, r *workload.Rates, cut []graph.EdgeID) int {
	covered := 0
	for _, e := range cut {
		if s.IsCovered(e) || s.IsPush(e) || s.IsPull(e) {
			continue
		}
		u := g.EdgeSource(e)
		v := g.EdgeTarget(e)
		direct := r.Prod[u]
		if r.Cons[v] < direct {
			direct = r.Cons[v]
		}
		outs := g.OutNeighbors(u)
		outLo, _ := g.OutEdgeRange(u)
		ins := g.InNeighbors(v)
		inIDs := g.InEdgeIDs(v)
		var bestHub graph.NodeID = -1
		var bestUp, bestDown graph.EdgeID
		bestCost := direct
		for i, j := 0, 0; i < len(outs) && j < len(ins); {
			switch {
			case outs[i] < ins[j]:
				i++
			case outs[i] > ins[j]:
				j++
			default:
				w := outs[i]
				up := outLo + graph.EdgeID(i)
				down := inIDs[j]
				cost := 0.0
				if !s.IsPush(up) {
					cost += r.Prod[u]
				}
				if !s.IsPull(down) {
					cost += r.Cons[v]
				}
				if w != u && w != v && cost <= bestCost && (bestHub < 0 || cost < bestCost) {
					bestHub, bestUp, bestDown, bestCost = w, up, down, cost
				}
				i++
				j++
			}
		}
		if bestHub >= 0 {
			s.SetPush(bestUp)
			s.SetPull(bestDown)
			s.SetCovered(e, bestHub)
			covered++
		}
	}
	return covered
}

// spliced is the schedule SolveCtx hands reconcileCut: every shard
// solved by single-threaded CHITCHAT, as the shard solver binds it,
// spliced and repaired; cut is the partition's cut.
func spliced(t *testing.T, g *graph.Graph, r *workload.Rates, k int) (*core.Schedule, []graph.EdgeID) {
	t.Helper()
	assign := partition.Locality(g, k, 0)
	solve := func(ctx context.Context, g *graph.Graph, r *workload.Rates) (*core.Schedule, error) {
		return chitchat.SolveCtx(ctx, g, r, chitchat.Config{Workers: 1})
	}
	out := core.NewSchedule(g)
	for idx, nodes := range assign.Groups() {
		res := solveShard(context.Background(), solve, g, r, nodes, idx)
		if res.err != nil || res.cause != nil {
			t.Fatalf("shard %d: %v %v", idx, res.err, res.cause)
		}
		if err := core.Splice(out, res.sub, res.sched); err != nil {
			t.Fatal(err)
		}
	}
	core.RepairCoverage(out, r)
	return out, cutEdges(g, assign)
}

// TestReconcileCutMatchesMerge: the stamped reconcileCut covers exactly
// the cut edges the two-pointer merge covers, through the same hubs,
// setting the same flags, on Flickr-like, Twitter-like and streamed
// graphs at 2, 4 and 8 shards and three seeds.
func TestReconcileCutMatchesMerge(t *testing.T) {
	size := func(full, short int) int {
		if testing.Short() {
			return short
		}
		return full
	}
	for seed := int64(1); seed <= 3; seed++ {
		graphs := []struct {
			kind string
			g    *graph.Graph
		}{
			{"flickr", graphgen.Social(graphgen.FlickrLike(size(600, 250), seed))},
			{"twitter", graphgen.Social(graphgen.TwitterLike(size(600, 250), seed))},
			{"stream", graphgen.StreamSocial(graphgen.FlickrLikeEdges(size(12000, 4000), seed))},
		}
		for _, gk := range graphs {
			g := gk.g
			r := workload.LogDegree(g, 5)
			for _, k := range []int{2, 4, 8} {
				name := fmt.Sprintf("%s/seed%d/shards%d", gk.kind, seed, k)
				got, cut := spliced(t, g, r, k)
				want := got.Clone()
				nGot := reconcileCut(got, g, r, cut)
				nWant := referenceReconcileCut(want, g, r, cut)
				if nGot != nWant {
					t.Fatalf("%s: CutCovered %d, merge %d", name, nGot, nWant)
				}
				if nWant == 0 {
					t.Fatalf("%s: the merge covered no cut edge; the oracle never bit", name)
				}
				for e := 0; e < g.NumEdges(); e++ {
					ee := graph.EdgeID(e)
					if got.IsPush(ee) != want.IsPush(ee) || got.IsPull(ee) != want.IsPull(ee) ||
						got.IsCovered(ee) != want.IsCovered(ee) || got.Hub(ee) != want.Hub(ee) {
						t.Fatalf("%s: edge %d differs from the merge", name, e)
					}
				}
			}
		}
	}
}

package chitchat

import (
	"fmt"
	"reflect"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/densest"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/scenario"
	"piggyback/internal/workload"
)

// sameSchedule fails the test at the first edge whose flags or hub differ.
func sameSchedule(t *testing.T, what string, got, ref *core.Schedule) {
	t.Helper()
	for e := graph.EdgeID(0); int(e) < ref.Graph().NumEdges(); e++ {
		if got.IsPush(e) != ref.IsPush(e) || got.IsPull(e) != ref.IsPull(e) ||
			got.IsCovered(e) != ref.IsCovered(e) || got.Hub(e) != ref.Hub(e) {
			t.Fatalf("%s: schedule differs at edge %d", what, e)
		}
	}
}

// Every post-commit replay of a solve, held against a fresh peel of the
// same instance at that moment: members, coverage, cost bits and the
// saved prefix must be equal, on the end state of every zoo scenario
// (the acceptance geometry; -short keeps the first two) and with a
// member cache small enough that commits re-peel before they replay.
func TestReplayMatchesRePeelOnZoo(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(300, 11))
	base := workload.LogDegree(g, 5)
	names := scenario.Default.Names()
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		trace, err := scenario.Default.Generate(name, g, base, scenario.Params{Ops: 800, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		endG, endR, err := scenario.Materialize(g, base, trace)
		if err != nil {
			t.Fatal(err)
		}
		for _, cacheCap := range []int{0, 2} {
			replays, walked := 0, 0
			replayObserver = func(w graph.NodeID, replayed, peeled densest.Result) {
				replays++
				if len(replayed.Peeled) > 0 {
					walked++
				}
				if !reflect.DeepEqual(replayed, peeled) {
					t.Errorf("%s cap=%d hub %d: replay %+v, fresh peel %+v", name, cacheCap, w, replayed, peeled)
				}
			}
			s := Solve(endG, endR, Config{MemberCacheCap: cacheCap})
			replayObserver = nil
			if err := s.Validate(); err != nil {
				t.Fatalf("%s cap=%d: %v", name, cacheCap, err)
			}
			if walked == 0 {
				t.Fatalf("%s cap=%d: %d replays, none over a non-empty prefix", name, cacheCap, replays)
			}
		}
	}
}

// The refresh policy cannot change the schedule. A commit happens only on
// a fresh head; every stale entry is a lower bound of its hub's true
// ratio; the queue orders by (priority, id). So the committed hub is the
// (true ratio, id) minimum over all hubs whatever else was refreshed on
// the way, and RefreshBatch, like Workers, only moves oracle work.
func TestRefreshPolicyCannotChangeSchedule(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		g := graphgen.Social(graphgen.FlickrLike(150, seed))
		r := workload.LogDegree(g, 5)
		ref := Solve(g, r, Config{Workers: 1, RefreshBatch: 1})
		if err := ref.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 2, 5, 16, 64, 1000} {
			for _, workers := range []int{1, 2, 4} {
				got := Solve(g, r, Config{Workers: workers, RefreshBatch: batch})
				sameSchedule(t, fmt.Sprintf("seed %d RefreshBatch=%d Workers=%d", seed, batch, workers), got, ref)
			}
		}
	}
}

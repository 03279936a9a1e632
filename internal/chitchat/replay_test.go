package chitchat

import (
	"reflect"
	"testing"

	"piggyback/internal/densest"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/scenario"
	"piggyback/internal/workload"
)

// zooEndState replays one zoo trace (800 ops, seed 42) over g and returns
// the graph and rates it ends on.
func zooEndState(t *testing.T, g *graph.Graph, base *workload.Rates, name string) (*graph.Graph, *workload.Rates) {
	t.Helper()
	trace, err := scenario.Default.Generate(name, g, base, scenario.Params{Ops: 800, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	endG, endR, err := scenario.Materialize(g, base, trace)
	if err != nil {
		t.Fatal(err)
	}
	return endG, endR
}

// Every hub commit of a solve, on the end state of every zoo scenario (the
// acceptance geometry; -short keeps the first two): the commit covers
// exactly what the stored oracle output claimed, and the post-commit
// replay equals a fresh peel of the same instance at that moment —
// members, coverage, cost bits and the saved prefix.
func TestReplayMatchesRePeelOnZoo(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(300, 11))
	base := workload.LogDegree(g, 5)
	names := scenario.Default.Names()
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		endG, endR := zooEndState(t, g, base, name)
		replays, walked := 0, 0
		commitObserver = func(w graph.NodeID, claimed, covered int) {
			if claimed != covered {
				t.Errorf("%s hub %d: claimed %d, covered %d", name, w, claimed, covered)
			}
		}
		replayObserver = func(w graph.NodeID, replayed, peeled densest.Result) {
			replays++
			if len(replayed.Peeled) > 0 {
				walked++
			}
			if !reflect.DeepEqual(replayed, peeled) {
				t.Errorf("%s hub %d: replay %+v, fresh peel %+v", name, w, replayed, peeled)
			}
		}
		s := Solve(endG, endR, Config{})
		commitObserver, replayObserver = nil, nil
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if walked == 0 {
			t.Fatalf("%s: %d replays, none over a non-empty prefix", name, replays)
		}
	}
}

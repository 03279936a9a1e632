// Edge cases the zoo exposed: zero-rate users, remove-then-re-add of
// the same edge, and empty-input determinism.

package scenario

import (
	"math"
	"reflect"
	"testing"
	"time"

	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

func TestGenerateChurnZeroRateNodes(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3},
		{From: 3, To: 4}, {From: 4, To: 5}, {From: 5, To: 0},
	})
	r := &workload.Rates{Prod: make([]float64, 6), Cons: make([]float64, 6)}
	ops := GenerateChurn(g, r, 400, ChurnConfig{Seed: 3})
	if len(ops) != 400 {
		t.Fatalf("emitted %d ops, want 400", len(ops))
	}
	sawRates := false
	for i, op := range ops {
		if op.Kind != workload.OpRates {
			continue
		}
		sawRates = true
		// Multiplicative scaling of a zero rate must stay exactly zero —
		// never NaN, never negative, never spontaneously positive.
		if op.Prod != 0 || op.Cons != 0 {
			t.Fatalf("op %d: zero-rate user scaled to prod=%v cons=%v", i, op.Prod, op.Cons)
		}
		if math.IsNaN(op.Prod) || math.IsNaN(op.Cons) {
			t.Fatalf("op %d: NaN rates", i)
		}
	}
	if !sawRates {
		t.Fatal("trace contains no rate updates to check")
	}
}

func TestGenerateChurnRemoveThenReAdd(t *testing.T) {
	g := graph.FromEdges(8, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
		{From: 2, To: 3}, {From: 3, To: 0},
	})
	r := &workload.Rates{
		Prod: []float64{1, 1, 1, 1, 1, 1, 1, 1},
		Cons: []float64{1, 1, 1, 1, 1, 1, 1, 1},
	}
	// A small dense-ish graph with heavy churn makes remove→re-add of
	// the same edge near-certain over a long trace.
	ops := GenerateChurn(g, r, 3000, ChurnConfig{Seed: 5, AddFraction: 0.45, RemoveFraction: 0.45})

	live := map[graph.Edge]bool{}
	for _, e := range g.EdgeList() {
		live[e] = true
	}
	removed := map[graph.Edge]bool{}
	reAdds := 0
	for i, op := range ops {
		e := graph.Edge{From: op.U, To: op.V}
		switch op.Kind {
		case workload.OpAdd:
			if live[e] {
				t.Fatalf("op %d: duplicate add %d→%d", i, op.U, op.V)
			}
			if removed[e] {
				reAdds++
			}
			live[e] = true
		case workload.OpRemove:
			if !live[e] {
				t.Fatalf("op %d: remove of absent edge %d→%d", i, op.U, op.V)
			}
			delete(live, e)
			removed[e] = true
		}
	}
	if reAdds == 0 {
		t.Fatal("trace never re-added a previously removed edge; the edge-case path is untested")
	}
}

func TestGenerateChurnEmptyInputsDeterministic(t *testing.T) {
	// Zero-length request: empty stream, not nil-pointer surprises.
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}})
	r := &workload.Rates{Prod: make([]float64, 4), Cons: make([]float64, 4)}
	if ops := GenerateChurn(g, r, 0, ChurnConfig{Seed: 1}); len(ops) != 0 {
		t.Fatalf("n=0 emitted %d ops", len(ops))
	}
	// A graph without nodes has no user to draw: an empty stream, as
	// from every zoo generator, not a panic.
	if ops := GenerateChurn(graph.FromEdges(0, nil), &workload.Rates{}, 50, ChurnConfig{Seed: 1}); len(ops) != 0 {
		t.Fatalf("0-node graph emitted %d ops", len(ops))
	}
	// Mixes that run out of emittable kinds end the trace early. One node
	// without a rate share: every add is a self-loop and there is no edge
	// to remove. Two edgeless nodes under adds only: both possible adds,
	// then nothing. A complete 3-node graph under adds only: nothing.
	// Each runs under a deadline, so a regression fails instead of hanging.
	one := graph.FromEdges(1, nil)
	two := graph.FromEdges(2, nil)
	full3 := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}, {From: 0, To: 2},
		{From: 2, To: 0}, {From: 1, To: 2}, {From: 2, To: 1}})
	for _, tc := range []struct {
		g    *graph.Graph
		cfg  ChurnConfig
		want int
	}{
		{one, ChurnConfig{AddFraction: 0.5, RemoveFraction: 0.5, Seed: 1}, 0},
		{one, ChurnConfig{AddFraction: 1, RemoveFraction: 0.35, Seed: 1}, 0},
		{two, ChurnConfig{AddFraction: 1, Seed: 1}, 2},
		{full3, ChurnConfig{AddFraction: 1, Seed: 1}, 0},
	} {
		done := make(chan []workload.ChurnOp, 1)
		go func() { done <- GenerateChurn(tc.g, workload.NewUniform(tc.g.NumNodes(), 1), 50, tc.cfg) }()
		select {
		case ops := <-done:
			if len(ops) != tc.want {
				t.Fatalf("%d-node graph under %+v emitted %d ops, want %d", tc.g.NumNodes(), tc.cfg, len(ops), tc.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d-node graph under %+v: GenerateChurn did not return", tc.g.NumNodes(), tc.cfg)
		}
	}

	// Edgeless graph: removals have nothing to draw and must be skipped,
	// not emitted; the stream still reaches full length and is
	// byte-identical for the same seed.
	empty := graph.FromEdges(5, nil)
	er := &workload.Rates{Prod: make([]float64, 5), Cons: make([]float64, 5)}
	a := GenerateChurn(empty, er, 200, ChurnConfig{Seed: 9})
	b := GenerateChurn(empty, er, 200, ChurnConfig{Seed: 9})
	if len(a) != 200 {
		t.Fatalf("edgeless graph emitted %d ops, want 200", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different op streams on an edgeless graph")
	}
	c := GenerateChurn(empty, er, 200, ChurnConfig{Seed: 10})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical op streams")
	}
	// And the stream must never remove an edge that does not exist: the
	// first op touching any edge must be its add.
	live := map[graph.Edge]bool{}
	for i, op := range a {
		e := graph.Edge{From: op.U, To: op.V}
		switch op.Kind {
		case workload.OpAdd:
			if live[e] {
				t.Fatalf("op %d: duplicate add", i)
			}
			live[e] = true
		case workload.OpRemove:
			if !live[e] {
				t.Fatalf("op %d: remove of absent edge on edgeless start", i)
			}
			delete(live, e)
		}
	}
}

package scenario

import (
	"reflect"
	"testing"

	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/workload"
)

func churnFixture() (*graph.Graph, *workload.Rates) {
	g := graph.FromEdges(20, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2}, {From: 2, To: 3},
		{From: 3, To: 4}, {From: 4, To: 0}, {From: 5, To: 6}, {From: 6, To: 7},
	})
	return g, workload.NewUniform(20, 5)
}

// Every op must be valid at its position: adds create absent edges,
// removes delete present ones, rates stay positive and finite.
func TestGenerateChurnOpsValidInSequence(t *testing.T) {
	g, r := churnFixture()
	ops := GenerateChurn(g, r, 500, ChurnConfig{Seed: 4})
	if len(ops) != 500 {
		t.Fatalf("got %d ops, want 500", len(ops))
	}
	live := make(map[graph.Edge]bool)
	for _, e := range g.EdgeList() {
		live[e] = true
	}
	var adds, removes, rates int
	for i, op := range ops {
		switch op.Kind {
		case workload.OpAdd:
			e := graph.Edge{From: op.U, To: op.V}
			if op.U == op.V || live[e] {
				t.Fatalf("op %d: invalid add %v", i, op)
			}
			live[e] = true
			adds++
		case workload.OpRemove:
			e := graph.Edge{From: op.U, To: op.V}
			if !live[e] {
				t.Fatalf("op %d: remove of absent edge %v", i, op)
			}
			delete(live, e)
			removes++
		case workload.OpRates:
			if op.Prod <= 0 || op.Cons <= 0 {
				t.Fatalf("op %d: non-positive rates %v", i, op)
			}
			rates++
		default:
			t.Fatalf("op %d: unknown kind %d", i, op.Kind)
		}
	}
	if adds == 0 || removes == 0 || rates == 0 {
		t.Fatalf("degenerate mix: adds=%d removes=%d rates=%d", adds, removes, rates)
	}
}

func TestGenerateChurnDeterministic(t *testing.T) {
	g, r := churnFixture()
	a := GenerateChurn(g, r, 200, ChurnConfig{Seed: 11})
	b := GenerateChurn(g, r, 200, ChurnConfig{Seed: 11})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c := GenerateChurn(g, r, 200, ChurnConfig{Seed: 12})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateChurnDoesNotMutateInputs(t *testing.T) {
	g, r := churnFixture()
	prod := append([]float64(nil), r.Prod...)
	_ = GenerateChurn(g, r, 300, ChurnConfig{Seed: 5})
	if !reflect.DeepEqual(prod, r.Prod) {
		t.Fatal("generator mutated the input rates")
	}
}

// TestGenerateChurnDigestsPinned holds GenerateChurn to the exact op
// streams it has always drawn (traceHash): the benchmark's churn_local
// trace (StreamSocial(FlickrLikeEdges(120 000, 7)), LogDegree 5, 1 000
// ops, seed 7), the three non-default mixes the daemon and edge-case
// tests use (2 000 ops on FlickrLike(300, 11)), and an edgeless and a
// one-node graph, where only some op kinds can be drawn. The default
// mix on FlickrLike(300, 11) is the zoo's Preferential pin. Any change
// to the draws is a contract break and must update a pin deliberately.
func TestGenerateChurnDigestsPinned(t *testing.T) {
	big := graphgen.StreamSocial(graphgen.FlickrLikeEdges(120_000, 7))
	zoo, zooR := zooGraph(t)
	edgeless, one := graph.FromEdges(5, nil), graph.FromEdges(1, nil)
	cases := []struct {
		name string
		g    *graph.Graph
		r    *workload.Rates
		n    int
		cfg  ChurnConfig
		want uint64
	}{
		{"churn_local", big, workload.LogDegree(big, 5), 1000, ChurnConfig{Seed: 7}, 0x5f990ac676856b9b},
		{"mix 0.1/0.1", zoo, zooR, 2000, ChurnConfig{AddFraction: 0.1, RemoveFraction: 0.1, Seed: 5}, 0x97d84353b94f1874},
		{"mix 0.3/0.4", zoo, zooR, 2000, ChurnConfig{AddFraction: 0.3, RemoveFraction: 0.4, Seed: 3}, 0xfbf91554a76ed2d6},
		{"mix 0.45/0.45", zoo, zooR, 2000, ChurnConfig{AddFraction: 0.45, RemoveFraction: 0.45, Seed: 5}, 0x949c7af0d56e751b},
		{"default mix", zoo, zooR, 2000, ChurnConfig{Seed: 42}, pinnedTraceHash[Preferential]},
		{"edgeless", edgeless, workload.LogDegree(edgeless, 5), 200, ChurnConfig{Seed: 9}, 0x5efb236a7a984f69},
		{"one node", one, workload.LogDegree(one, 5), 200, ChurnConfig{Seed: 9}, 0x3c85198b29c7907d},
	}
	for _, tc := range cases {
		ops := GenerateChurn(tc.g, tc.r, tc.n, tc.cfg)
		if len(ops) != tc.n {
			t.Errorf("%s: %d ops, want %d", tc.name, len(ops), tc.n)
		}
		if h := traceHash(ops); h != tc.want {
			t.Errorf("%s: trace hash %#x, pinned %#x", tc.name, h, tc.want)
		}
		if _, _, err := Materialize(tc.g, tc.r, ops); err != nil {
			t.Errorf("%s: invalid trace: %v", tc.name, err)
		}
	}
}

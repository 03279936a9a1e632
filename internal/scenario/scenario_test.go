package scenario

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/incremental"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

func zooGraph(t *testing.T) (*graph.Graph, *workload.Rates) {
	t.Helper()
	g := graphgen.Social(graphgen.FlickrLike(300, 11))
	return g, workload.LogDegree(g, 5)
}

// traceHash fingerprints an op stream. %.17g round-trips float64, so two
// streams hash equal iff they are byte-identical after decoding.
func traceHash(ops []workload.ChurnOp) uint64 {
	h := fnv.New64a()
	for _, op := range ops {
		fmt.Fprintf(h, "%d %d %d %.17g %.17g\n", op.Kind, op.U, op.V, op.Prod, op.Cons)
	}
	return h.Sum64()
}

// TestRegistryBasics pins the fixed table's lookup: an unknown name is
// refused with the known ones listed, and Names is sorted.
func TestRegistryBasics(t *testing.T) {
	g, r := zooGraph(t)
	_, err := Default.Generate("nope", g, r, Params{Ops: 10})
	if !errors.Is(err, ErrUnknownScenario) {
		t.Fatalf("Generate(unknown) err = %v, want ErrUnknownScenario", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprint(Default.Names())) {
		t.Fatalf("unknown-name error %q does not list the scenarios", err)
	}
	if got := (Table{"b": GenDiurnal, "a": GenCascade}).Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Names() = %v", got)
	}
}

func TestDefaultRegistryRoster(t *testing.T) {
	want := []string{Cascade, Diurnal, FlashCrowd, LDBC, Preferential, RegionChurn}
	if got := Default.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Default.Names() = %v, want %v", got, want)
	}
}

// pinnedTraceHash is the byte-identity contract: the exact op stream each
// built-in scenario emits for FlickrLike(300, 11)+LogDegree rates at
// Ops=2000 Seed=42. Any change to a generator's draws is a contract break
// and must update the pin deliberately.
var pinnedTraceHash = map[string]uint64{
	Cascade:      0x991cbab2f22d136f,
	Diurnal:      0x9112a12b44ac61f6,
	FlashCrowd:   0x76b41a895476b1a8,
	LDBC:         0xebeb6056a29be912,
	Preferential: 0x059c86a0e1c9c69c,
	RegionChurn:  0xe2629a08854f4433,
}

func TestZooDeterminismAndValidity(t *testing.T) {
	g, r := zooGraph(t)
	p := Params{Ops: 2000, Seed: 42}
	for _, name := range Default.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ops, err := Default.Generate(name, g, r, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(ops) != p.Ops {
				t.Fatalf("emitted %d ops, want %d", len(ops), p.Ops)
			}
			again, _ := Default.Generate(name, g, r, p)
			if !reflect.DeepEqual(ops, again) {
				t.Fatal("same seed produced different op streams")
			}
			if h := traceHash(ops); h != pinnedTraceHash[name] {
				t.Errorf("trace hash %#x, pinned %#x — generator draws changed", h, pinnedTraceHash[name])
			}
			other, _ := Default.Generate(name, g, r, Params{Ops: p.Ops, Seed: 43})
			if reflect.DeepEqual(ops, other) {
				t.Error("different seeds produced identical op streams")
			}
			// Every op must be valid at its position; Materialize is the
			// reference replayer and errors on the first violation.
			mg, mr, err := Materialize(g, r, ops)
			if err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if mg.NumNodes() != g.NumNodes() {
				t.Fatalf("Materialize changed node count: %d → %d", g.NumNodes(), mg.NumNodes())
			}
			if len(mr.Prod) != g.NumNodes() || len(mr.Cons) != g.NumNodes() {
				t.Fatalf("Materialize rates sized %d/%d", len(mr.Prod), len(mr.Cons))
			}
			for u := 0; u < mg.NumNodes(); u++ {
				if !(mr.Prod[u] >= 0) || !(mr.Cons[u] >= 0) {
					t.Fatalf("node %d has invalid final rates %v/%v", u, mr.Prod[u], mr.Cons[u])
				}
			}
		})
	}
}

func TestZooEmptyAndTinyInputs(t *testing.T) {
	g, r := zooGraph(t)
	tiny := graphgen.Social(graphgen.FlickrLike(3, 1))
	tinyR := workload.LogDegree(tiny, 5)
	empty := graph.FromEdges(0, nil)
	for _, name := range Default.Names() {
		if ops, err := Default.Generate(name, empty, &workload.Rates{}, Params{Ops: 50, Seed: 1}); err != nil || len(ops) != 0 {
			t.Errorf("%s: 0-node graph gave %d ops, err %v", name, len(ops), err)
		}
		if ops, err := Default.Generate(name, g, r, Params{Ops: 0, Seed: 1}); err != nil || len(ops) != 0 {
			t.Errorf("%s: Ops=0 gave %d ops, err %v", name, len(ops), err)
		}
		if ops, err := Default.Generate(name, g, r, Params{Ops: -5, Seed: 1}); err != nil || len(ops) != 0 {
			t.Errorf("%s: Ops<0 gave %d ops, err %v", name, len(ops), err)
		}
		// Tiny graphs must not hang or panic; whatever they emit must
		// still replay cleanly.
		ops, err := Default.Generate(name, tiny, tinyR, Params{Ops: 50, Seed: 1})
		if err != nil {
			t.Errorf("%s tiny: %v", name, err)
			continue
		}
		if _, _, err := Materialize(tiny, tinyR, ops); err != nil {
			t.Errorf("%s tiny: invalid trace: %v", name, err)
		}
	}
}

func TestZooTelemetry(t *testing.T) {
	g, r := zooGraph(t)
	tr := telemetry.NewTracer(7)
	reg := telemetry.NewRegistry()
	bare, _ := Default.Generate(FlashCrowd, g, r, Params{Ops: 600, Seed: 9})
	ops, err := Default.Generate(FlashCrowd, g, r, Params{Ops: 600, Seed: 9, Tracer: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, bare) {
		t.Fatal("attaching telemetry changed the op stream")
	}
	tree := tr.Tree()
	for _, want := range []string{"scenario/flashcrowd", "phase/calm", "phase/spike", "phase/decay"} {
		if !strings.Contains(tree, want) {
			t.Errorf("span tree missing %q:\n%s", want, tree)
		}
	}
	snap := reg.Snapshot().PromText()
	if !strings.Contains(snap, "scenario_ops_total") || !strings.Contains(snap, `scenario="flashcrowd"`) {
		t.Errorf("snapshot missing scenario series:\n%s", snap)
	}
	if !strings.Contains(snap, "scenario_phase_ops_total") || !strings.Contains(snap, `phase="spike"`) {
		t.Errorf("snapshot missing phase series:\n%s", snap)
	}

	// Every booked op counts once in the scenario's total and once in its
	// phase's series, for every zoo scenario.
	for _, name := range Default.Names() {
		reg := telemetry.NewRegistry()
		ops, err := Default.Generate(name, g, r, Params{Ops: 400, Seed: 9, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		var total, phases float64
		for _, m := range reg.Snapshot().Metrics {
			switch m.Name {
			case "scenario_ops_total":
				total += m.Value
			case "scenario_phase_ops_total":
				phases += m.Value
			}
		}
		if total != float64(len(ops)) || phases != float64(len(ops)) {
			t.Errorf("%s: scenario_ops_total %v, phase series sum %v, trace %d ops", name, total, phases, len(ops))
		}
	}
}

// invalidOps are single ops that are invalid on invalidOpsGraph.
var invalidOps = []struct {
	name string
	op   workload.ChurnOp
}{
	{"self-loop add", workload.ChurnOp{Kind: workload.OpAdd, U: 2, V: 2}},
	{"duplicate add", workload.ChurnOp{Kind: workload.OpAdd, U: 0, V: 1}},
	{"absent remove", workload.ChurnOp{Kind: workload.OpRemove, U: 1, V: 2}},
	{"out of range", workload.ChurnOp{Kind: workload.OpAdd, U: 0, V: 9}},
	{"negative rate", workload.ChurnOp{Kind: workload.OpRates, U: 0, Prod: -1, Cons: 1}},
	{"+Inf rate", workload.ChurnOp{Kind: workload.OpRates, U: 0, Prod: 1, Cons: math.Inf(1)}},
	{"NaN rate", workload.ChurnOp{Kind: workload.OpRates, U: 0, Prod: math.NaN(), Cons: 1}},
	{"unknown kind", workload.ChurnOp{Kind: 99, U: 0, V: 1}},
}

// invalidOpsGraph is the 3-node graph with the one edge 0→1 and unit
// rates that invalidOps are invalid on.
func invalidOpsGraph() (*graph.Graph, *workload.Rates) {
	return graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}}),
		&workload.Rates{Prod: []float64{1, 1, 1}, Cons: []float64{1, 1, 1}}
}

func TestMaterializeRejectsInvalidOps(t *testing.T) {
	g, r := invalidOpsGraph()
	for _, tc := range invalidOps {
		if _, _, err := Materialize(g, r, []workload.ChurnOp{tc.op}); err == nil {
			t.Errorf("%s: Materialize accepted invalid op", tc.name)
		}
	}
	// And the happy path: add then remove then re-add of the same edge.
	ops := []workload.ChurnOp{
		{Kind: workload.OpAdd, U: 1, V: 2},
		{Kind: workload.OpRemove, U: 1, V: 2},
		{Kind: workload.OpAdd, U: 1, V: 2},
		{Kind: workload.OpRates, U: 2, Prod: 0, Cons: 3.5},
	}
	mg, mr, err := Materialize(g, r, ops)
	if err != nil {
		t.Fatalf("valid replay failed: %v", err)
	}
	if mg.NumEdges() != 2 {
		t.Fatalf("final graph has %d edges, want 2", mg.NumEdges())
	}
	if mr.Prod[2] != 0 || mr.Cons[2] != 3.5 {
		t.Fatalf("final rates for node 2 = %v/%v", mr.Prod[2], mr.Cons[2])
	}
}

// maintainerReplay replays ops through the incremental maintainer over
// the hybrid schedule of (g, copy of r) and returns its live edge set and
// rates, or the first op the maintainer refuses.
func maintainerReplay(g *graph.Graph, r *workload.Rates, ops []workload.ChurnOp) (*graph.Graph, *workload.Rates, error) {
	rc := &workload.Rates{Prod: slices.Clone(r.Prod), Cons: slices.Clone(r.Cons)}
	m := incremental.New(baseline.Hybrid(g, rc), rc)
	for i, op := range ops {
		var err error
		switch op.Kind {
		case workload.OpAdd:
			err = m.AddEdge(op.U, op.V)
		case workload.OpRemove:
			err = m.RemoveEdge(op.U, op.V)
		case workload.OpRates:
			err = m.UpdateRates(op.U, op.Prod, op.Cons)
		default:
			err = fmt.Errorf("unknown kind %d", op.Kind)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("op %d: %w", i, err)
		}
	}
	mg, _ := m.Rebase()
	return mg, rc, nil
}

// TestMaterializeMatchesMaintainer holds Materialize, and through it the
// generators' validity, to an independent replayer: the incremental
// maintainer shares no code with the trace builder. Every zoo trace at
// the acceptance geometry and one GenerateChurn trace must end on the
// same edge list and rates under both, and the maintainer must refuse
// every op Materialize refuses.
func TestMaterializeMatchesMaintainer(t *testing.T) {
	g, r := zooGraph(t)
	traces := map[string][]workload.ChurnOp{
		"churn": GenerateChurn(g, r, 800, ChurnConfig{AddFraction: 0.1, RemoveFraction: 0.1, Seed: 42}),
	}
	for _, name := range Default.Names() {
		traces[name], _ = Default.Generate(name, g, r, Params{Ops: 800, Seed: 42})
	}
	for name, ops := range traces {
		mg, mr, err := Materialize(g, r, ops)
		if err != nil {
			t.Fatalf("%s: Materialize: %v", name, err)
		}
		rg, rr, err := maintainerReplay(g, r, ops)
		if err != nil {
			t.Fatalf("%s: maintainer: %v", name, err)
		}
		if !slices.Equal(mg.EdgeList(), rg.EdgeList()) {
			t.Errorf("%s: Materialize ends on %d edges, the maintainer on %d, or they differ",
				name, mg.NumEdges(), rg.NumEdges())
		}
		if !slices.Equal(mr.Prod, rr.Prod) || !slices.Equal(mr.Cons, rr.Cons) {
			t.Errorf("%s: Materialize and the maintainer end on different rates", name)
		}
	}
	g3, r3 := invalidOpsGraph()
	for _, tc := range invalidOps {
		if _, _, err := maintainerReplay(g3, r3, []workload.ChurnOp{tc.op}); err == nil {
			t.Errorf("%s: the maintainer accepted an op Materialize refuses", tc.name)
		}
	}
}

func TestFlashCrowdSpikesCelebrity(t *testing.T) {
	g, r := zooGraph(t)
	ops, err := Default.Generate(FlashCrowd, g, r, Params{Ops: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	c := hottestProducer(g)
	_, mr, err := Materialize(g, r, ops[:len(ops)/2])
	if err != nil {
		t.Fatal(err)
	}
	// Mid-trace (end of spike phase) the celebrity's rates must sit far
	// above base — the ~1000× ramp is 1.8^12 ≈ 1157×.
	if mr.Prod[c] < 500*r.Prod[c] || mr.Cons[c] < 500*r.Cons[c] {
		t.Fatalf("celebrity %d mid-trace rates %v/%v, base %v/%v — no spike",
			c, mr.Prod[c], mr.Cons[c], r.Prod[c], r.Cons[c])
	}
	// By the end of the decay phase they are back within 2× of base.
	_, fr, err := Materialize(g, r, ops)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Prod[c] > 2*r.Prod[c] || fr.Cons[c] > 2*r.Cons[c] {
		t.Fatalf("celebrity %d final rates %v/%v did not decay (base %v/%v)",
			c, fr.Prod[c], fr.Cons[c], r.Prod[c], r.Cons[c])
	}
}

// Package scenario is the adversarial workload zoo: a fixed table of
// deterministic, seed-replayable churn-trace generators that stress the
// hybrid push/pull schedule exactly where its optimizations are weakest.
//
// Every number in the repo used to be pinned to one Flickr-like preset
// plus stationary preferential-attachment churn (GenerateChurn, the
// Preferential row, drawn on the same builder as every other row). The
// paper's own evaluation (Twitter, Flickr
// and Yahoo! traces) and the SIGMOD 2014 programming-contest analysis of
// the LDBC social-network graph both argue that the interesting regime
// is non-stationary: skewed, bursty, correlated. Each generator here is
// adversarial BY CONSTRUCTION — it manufactures a specific stress
// (a celebrity rate spike, a viral cascade confined to one partition
// region, region-correlated churn bursts) instead of hoping a sampled
// trace happens to contain one — and emits the existing
// workload.ChurnOp stream, so the online daemon, cmd/loadgen and
// cmd/experiments consume zoo traces unchanged.
//
// Determinism is a hard contract: the same (graph, rates, Params.Seed)
// yields a byte-identical op stream, every op is valid at its position
// (no duplicate adds, no removes of absent edges, rates that pass
// workload.ValidRate), and generators consult neither time nor global
// state. The
// acceptance suite leans on this to pin the daemon's accept/revert
// behavior per scenario.
package scenario

import (
	"errors"
	"fmt"
	"sort"

	"piggyback/internal/graph"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// Params sizes one trace generation. The zero value of the optional
// fields disables them.
type Params struct {
	// Ops is the trace length; <= 0 yields an empty trace.
	Ops int
	// Seed drives every random choice. Same seed, same stream.
	Seed int64
	// Tracer, when non-nil, records one span per scenario with one child
	// span per phase (calm/spike/decay, ...), so a zoo run's structure
	// shows up in the same deterministic span tree as the daemon's
	// re-solves.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, books scenario_ops_total and
	// scenario_phase_ops_total{scenario,phase} series while generating.
	Metrics *telemetry.Registry
}

// Generator synthesizes a churn trace against the live edge set that
// starts as g under rates r. Implementations must not retain or mutate
// g or r.
type Generator func(g *graph.Graph, r *workload.Rates, p Params) []workload.ChurnOp

// ErrUnknownScenario is wrapped by Generate for a name outside Names.
var ErrUnknownScenario = errors.New("scenario: unknown scenario")

// Table maps scenario names to generators.
type Table map[string]Generator

// Default is the built-in zoo, one generator per scenario constant. The
// set is closed: a new scenario is a new constant, generator and row.
var Default = Table{
	FlashCrowd:   GenFlashCrowd,
	Diurnal:      GenDiurnal,
	Cascade:      GenCascade,
	RegionChurn:  GenRegionChurn,
	LDBC:         GenLDBC,
	Preferential: GenPreferential,
}

// Generate runs the generator named name, or returns an error wrapping
// ErrUnknownScenario that lists the known names.
func (t Table) Generate(name string, g *graph.Graph, rates *workload.Rates, p Params) ([]workload.ChurnOp, error) {
	gen, ok := t[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownScenario, name, t.Names())
	}
	return gen(g, rates, p), nil
}

// Names returns every scenario name, sorted.
func (t Table) Names() []string {
	names := make([]string, 0, len(t))
	for n := range t {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Materialize replays a trace against (g, r) as a pure function and
// returns the final live graph and rates — what a from-scratch solver
// should be handed after the scenario ran. The replay runs on the trace
// builder, so it admits exactly what a generator may emit; it errors on
// the first op that is invalid at its position.
func Materialize(g *graph.Graph, r *workload.Rates, ops []workload.ChurnOp) (*graph.Graph, *workload.Rates, error) {
	b := newBuilder("", g, r, Params{Ops: len(ops)})
	for i, op := range ops {
		ok := false
		switch op.Kind {
		case workload.OpAdd:
			ok = b.add(op.U, op.V)
		case workload.OpRemove:
			ok = b.remove(op.U, op.V)
		case workload.OpRates:
			ok = b.setRates(op.U, op.Prod, op.Cons)
		}
		if !ok {
			return nil, nil, fmt.Errorf("scenario: op %d: %+v is invalid at its position", i, op)
		}
	}
	return graph.FromEdges(b.n, b.live), &workload.Rates{Prod: b.prod, Cons: b.cons}, nil
}

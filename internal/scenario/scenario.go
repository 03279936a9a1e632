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
// should be handed after the scenario ran. It errors on the first op
// that is invalid at its position, which doubles as the validity check
// the generator tests replay every zoo trace through.
func Materialize(g *graph.Graph, r *workload.Rates, ops []workload.ChurnOp) (*graph.Graph, *workload.Rates, error) {
	live := g.EdgeList()
	index := make(map[graph.Edge]int, len(live))
	for i, e := range live {
		index[e] = i
	}
	n := g.NumNodes()
	out := &workload.Rates{
		Prod: append([]float64(nil), r.Prod...),
		Cons: append([]float64(nil), r.Cons...),
	}
	for i, op := range ops {
		if int(op.U) < 0 || int(op.U) >= n || (op.Kind != workload.OpRates && (int(op.V) < 0 || int(op.V) >= n)) {
			return nil, nil, fmt.Errorf("scenario: op %d: node out of range", i)
		}
		switch op.Kind {
		case workload.OpAdd:
			e := graph.Edge{From: op.U, To: op.V}
			if op.U == op.V {
				return nil, nil, fmt.Errorf("scenario: op %d: self-loop add %d", i, op.U)
			}
			if _, dup := index[e]; dup {
				return nil, nil, fmt.Errorf("scenario: op %d: duplicate add %d→%d", i, op.U, op.V)
			}
			index[e] = len(live)
			live = append(live, e)
		case workload.OpRemove:
			e := graph.Edge{From: op.U, To: op.V}
			j, ok := index[e]
			if !ok {
				return nil, nil, fmt.Errorf("scenario: op %d: remove of absent edge %d→%d", i, op.U, op.V)
			}
			last := len(live) - 1
			live[j] = live[last]
			index[live[j]] = j
			live = live[:last]
			delete(index, e)
		case workload.OpRates:
			if !workload.ValidRate(op.Prod) || !workload.ValidRate(op.Cons) {
				return nil, nil, fmt.Errorf("scenario: op %d: invalid rates prod=%v cons=%v", i, op.Prod, op.Cons)
			}
			out.Prod[op.U] = op.Prod
			out.Cons[op.U] = op.Cons
		default:
			return nil, nil, fmt.Errorf("scenario: op %d: unknown kind %d", i, op.Kind)
		}
	}
	return graph.FromEdges(n, live), out, nil
}

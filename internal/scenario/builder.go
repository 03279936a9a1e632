// The shared trace builder every generator drives: it owns the evolving
// edge set and rate vectors, refuses invalid ops instead of emitting
// them, and books the telemetry phases, so a generator reads as the
// scenario's plot line and nothing else.

package scenario

import (
	"fmt"
	"math/rand"

	"piggyback/internal/graph"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// builder accumulates a valid churn-op stream against an evolving edge
// set. All mutation goes through it, so validity-at-position is
// enforced in exactly one place.
type builder struct {
	rng  *rand.Rand
	n    int
	want int
	ops  []workload.ChurnOp

	live  []graph.Edge
	index map[graph.Edge]int

	prod, cons []float64

	// telemetry (all optional; nil-safe)
	tracer    *telemetry.Tracer
	root      telemetry.SpanID
	phaseSpan telemetry.SpanID
	phaseOps  int
	opsTotal  *telemetry.Counter // scenario_ops_total
	phaseTot  *telemetry.Counter // the open phase's scenario_phase_ops_total
	metrics   *telemetry.Registry
	scenario  string
}

func newBuilder(name string, g *graph.Graph, r *workload.Rates, p Params) *builder {
	b := &builder{
		rng:      rand.New(rand.NewSource(p.Seed)),
		n:        g.NumNodes(),
		want:     p.Ops,
		live:     g.EdgeList(),
		prod:     append([]float64(nil), r.Prod...),
		cons:     append([]float64(nil), r.Cons...),
		tracer:   p.Tracer,
		metrics:  p.Metrics,
		scenario: name,
	}
	if b.want > 0 {
		b.ops = make([]workload.ChurnOp, 0, b.want)
	}
	b.index = make(map[graph.Edge]int, len(b.live))
	for i, e := range b.live {
		b.index[e] = i
	}
	if b.tracer != nil {
		b.root = b.tracer.Begin(telemetry.RootSpan, "scenario/"+name, fmt.Sprintf("ops=%d seed=%d", p.Ops, p.Seed))
	}
	if b.metrics != nil {
		b.opsTotal = b.metrics.Counter("scenario_ops_total",
			telemetry.Label{Key: "scenario", Value: name})
	}
	return b
}

// phase closes the previous phase span (if any) and opens a new one.
// Phase boundaries also land in the scenario_phase_ops_total series.
func (b *builder) phase(name string) {
	b.endPhase()
	if b.tracer != nil {
		b.phaseSpan = b.tracer.Begin(b.root, "phase/"+name, "")
	}
	if b.metrics != nil {
		b.phaseTot = b.metrics.Counter("scenario_phase_ops_total",
			telemetry.Label{Key: "scenario", Value: b.scenario},
			telemetry.Label{Key: "phase", Value: name})
	}
	b.phaseOps = 0
}

func (b *builder) endPhase() {
	if b.tracer != nil && b.phaseSpan != 0 {
		b.tracer.End(b.phaseSpan, fmt.Sprintf("ops=%d", b.phaseOps))
		b.phaseSpan = 0
	}
}

// done closes the telemetry spans and returns the finished trace.
func (b *builder) done() []workload.ChurnOp {
	b.endPhase()
	if b.tracer != nil {
		b.tracer.End(b.root, fmt.Sprintf("ops=%d", len(b.ops)))
	}
	return b.ops
}

// full reports whether the trace reached its target length; every
// generator loop is bounded by it.
func (b *builder) full() bool { return len(b.ops) >= b.want }

func (b *builder) book(op workload.ChurnOp) {
	b.ops = append(b.ops, op)
	b.phaseOps++
	b.opsTotal.Inc()
	b.phaseTot.Inc()
}

// add emits an OpAdd if the edge is addable (no self-loop, not live,
// trace not full) and reports whether it did.
func (b *builder) add(u, v graph.NodeID) bool {
	if b.full() || u == v || u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return false
	}
	e := graph.Edge{From: u, To: v}
	if _, dup := b.index[e]; dup {
		return false
	}
	b.index[e] = len(b.live)
	b.live = append(b.live, e)
	b.book(workload.ChurnOp{Kind: workload.OpAdd, U: u, V: v})
	return true
}

// remove emits an OpRemove if the edge is live and reports whether it
// did.
func (b *builder) remove(u, v graph.NodeID) bool {
	if b.full() {
		return false
	}
	e := graph.Edge{From: u, To: v}
	i, ok := b.index[e]
	if !ok {
		return false
	}
	last := len(b.live) - 1
	b.live[i] = b.live[last]
	b.index[b.live[i]] = i
	b.live = b.live[:last]
	delete(b.index, e)
	b.book(workload.ChurnOp{Kind: workload.OpRemove, U: u, V: v})
	return true
}

// removeRandom removes a uniformly drawn live edge and returns it;
// false when none.
func (b *builder) removeRandom() (graph.Edge, bool) {
	if len(b.live) == 0 {
		return graph.Edge{}, false
	}
	e := b.live[b.rng.Intn(len(b.live))]
	return e, b.remove(e.From, e.To)
}

// setRates emits an OpRates pinning u's rates to (prod, cons).
func (b *builder) setRates(u graph.NodeID, prod, cons float64) bool {
	if b.full() || u < 0 || int(u) >= b.n || !workload.ValidRate(prod) || !workload.ValidRate(cons) {
		return false
	}
	b.prod[u] = prod
	b.cons[u] = cons
	b.book(workload.ChurnOp{Kind: workload.OpRates, U: u, Prod: prod, Cons: cons})
	return true
}

// scaleRates multiplies u's current rates by (fp, fc).
func (b *builder) scaleRates(u graph.NodeID, fp, fc float64) bool {
	return b.setRates(u, b.prod[u]*fp, b.cons[u]*fc)
}

// swing draws a rate factor in [1/top, top]: a uniform step up, or its
// inverse down with probability one half.
func (b *builder) swing(top float64) float64 {
	s := 1 + b.rng.Float64()*(top-1)
	if b.rng.Intn(2) == 0 {
		return 1 / s
	}
	return s
}

// randomLiveFrom returns the producer of a uniformly drawn live edge —
// sampling nodes proportionally to their live follower count without
// any ticket bookkeeping. ok is false when no edges are live.
func (b *builder) randomLiveFrom() (graph.NodeID, bool) {
	if len(b.live) == 0 {
		return 0, false
	}
	return b.live[b.rng.Intn(len(b.live))].From, true
}

// randomLiveTo is randomLiveFrom for consumers: sampling proportional
// to live followee count.
func (b *builder) randomLiveTo() (graph.NodeID, bool) {
	if len(b.live) == 0 {
		return 0, false
	}
	return b.live[b.rng.Intn(len(b.live))].To, true
}

// backgroundOp emits one op of stationary background churn: addFrac
// adds (producer degree-biased through randomLiveFrom, consumer
// uniform), removeFrac removes, remainder mild rate drift (both rates
// scaled by an independent factor in [1/1.5, 1.5]). Emitting can fail
// (duplicate add draw, empty edge set); callers loop on full().
func (b *builder) backgroundOp(addFrac, removeFrac float64) {
	x := b.rng.Float64()
	switch {
	case x < addFrac:
		var u graph.NodeID
		if b.rng.Float64() < 0.8 {
			if p, ok := b.randomLiveFrom(); ok {
				u = p
			} else {
				u = graph.NodeID(b.rng.Intn(b.n))
			}
		} else {
			u = graph.NodeID(b.rng.Intn(b.n))
		}
		b.add(u, graph.NodeID(b.rng.Intn(b.n)))
	case x < addFrac+removeFrac:
		b.removeRandom()
	default:
		b.scaleRates(graph.NodeID(b.rng.Intn(b.n)), b.swing(1.5), b.swing(1.5))
	}
}

// hottestProducer returns the node with the highest live follower count
// (out-degree in the u → v = "v subscribes to u" convention), lowest id
// on ties — the deterministic celebrity pick.
func hottestProducer(g *graph.Graph) graph.NodeID {
	best, bestDeg := graph.NodeID(0), -1
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.OutDegree(graph.NodeID(u)); d > bestDeg {
			best, bestDeg = graph.NodeID(u), d
		}
	}
	return best
}

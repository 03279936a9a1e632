// Churn-trace generation: the synthetic stream of graph and workload
// updates the online rescheduling subsystem ingests. The paper's §3.3
// argues schedules must survive a dynamic social graph; real churn
// traces were no more available to us than real rate traces were to the
// authors, so the generator follows the same playbook as the rest of
// the workload package — preserve the properties the results depend on
// (follows dominate unfollows, new follows prefer popular producers,
// activity shifts are heavy-tailed) and keep everything deterministic
// given the seed.

package workload

import (
	"math/rand"

	"piggyback/internal/graph"
)

// OpKind discriminates churn operations.
type OpKind uint8

const (
	// OpAdd inserts the edge U → V (V follows U).
	OpAdd OpKind = iota
	// OpRemove deletes the edge U → V.
	OpRemove
	// OpRates replaces user U's production/consumption rates with
	// Prod/Cons.
	OpRates
)

// ChurnOp is one update in a churn stream.
type ChurnOp struct {
	Kind OpKind
	U, V graph.NodeID
	// Prod, Cons are the new rates for OpRates ops.
	Prod, Cons float64
}

// ChurnConfig tunes GenerateChurn. The zero value uses the defaults.
type ChurnConfig struct {
	// AddFraction is the fraction of ops that add edges; 0 means 0.55
	// (graphs grow: follows outnumber unfollows, per the LDBC-style
	// dynamic-workload analyses).
	AddFraction float64
	// RemoveFraction is the fraction of ops that remove edges; 0 means
	// 0.35. The remainder are rate updates.
	RemoveFraction float64
	Seed           int64
}

// rateScale bounds the multiplicative swing of a rate update: a user's
// activity at most doubles or halves per update.
const rateScale = 2.0

// GenerateChurn synthesizes n churn ops against the live edge set that
// starts as g. Adds pick the producer by follower-count preferential
// attachment over the EVOLVING graph and the consumer uniformly;
// removes pick a live edge uniformly; rate updates pick a user
// uniformly and scale both rates by an independent factor in
// [1/rateScale, rateScale]. Every op is valid at its position in the
// stream (no duplicate adds, no removes of absent edges), and the
// result is deterministic given cfg.Seed.
func GenerateChurn(g *graph.Graph, r *Rates, n int, cfg ChurnConfig) []ChurnOp {
	if cfg.AddFraction == 0 {
		cfg.AddFraction = 0.55
	}
	if cfg.RemoveFraction == 0 {
		cfg.RemoveFraction = 0.35
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nn := g.NumNodes()

	// Live edge set: slice for uniform removal sampling, map for
	// membership. Tickets drive preferential attachment of adds; a
	// ticket is issued per follow and never withdrawn, so sampling
	// corrects for removals by accepting a drawn producer with
	// probability liveDeg/issued — the effective weight tracks the
	// EVOLVING follower count, not cumulative adds.
	live := g.EdgeList()
	index := make(map[graph.Edge]int, len(live))
	for i, e := range live {
		index[e] = i
	}
	tickets := make([]graph.NodeID, 0, len(live)+n)
	issued := make([]int, nn)
	liveDeg := make([]int, nn)
	for _, e := range live {
		tickets = append(tickets, e.From)
		issued[e.From]++
		liveDeg[e.From]++
	}
	drawProducer := func() graph.NodeID {
		for try := 0; try < 4 && len(tickets) > 0; try++ {
			u := tickets[rng.Intn(len(tickets))]
			if rng.Float64()*float64(issued[u]) < float64(liveDeg[u]) {
				return u
			}
		}
		return graph.NodeID(rng.Intn(nn))
	}
	prod := append([]float64(nil), r.Prod...)
	cons := append([]float64(nil), r.Cons...)

	removeAt := func(i int) {
		e := live[i]
		last := len(live) - 1
		live[i] = live[last]
		index[live[i]] = i
		live = live[:last]
		delete(index, e)
		liveDeg[e.From]--
	}

	ops := make([]ChurnOp, 0, n)
	for len(ops) < n {
		x := rng.Float64()
		switch {
		case x < cfg.AddFraction:
			// Producer by preferential attachment, consumer uniform.
			var u graph.NodeID
			if rng.Float64() < 0.8 {
				u = drawProducer()
			} else {
				u = graph.NodeID(rng.Intn(nn))
			}
			v := graph.NodeID(rng.Intn(nn))
			e := graph.Edge{From: u, To: v}
			if u == v {
				continue
			}
			if _, ok := index[e]; ok {
				continue
			}
			index[e] = len(live)
			live = append(live, e)
			tickets = append(tickets, u)
			issued[u]++
			liveDeg[u]++
			ops = append(ops, ChurnOp{Kind: OpAdd, U: u, V: v})
		case x < cfg.AddFraction+cfg.RemoveFraction:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			e := live[i]
			removeAt(i)
			ops = append(ops, ChurnOp{Kind: OpRemove, U: e.From, V: e.To})
		default:
			u := graph.NodeID(rng.Intn(nn))
			scale := func() float64 {
				s := 1 + rng.Float64()*(rateScale-1)
				if rng.Intn(2) == 0 {
					return 1 / s
				}
				return s
			}
			prod[u] *= scale()
			cons[u] *= scale()
			ops = append(ops, ChurnOp{Kind: OpRates, U: u, Prod: prod[u], Cons: cons[u]})
		}
	}
	return ops
}

// Package workload models per-user production and consumption rates.
//
// Following §4.1 of the paper: real workload traces were unavailable even
// to the authors, who synthesize rates from the observation (Huberman et
// al.) that users with many followers produce more and users following
// many accounts consume more. Rates are proportional to the logarithm of
// follower / followee counts, scaled so that the ratio of average
// consumption rate to average production rate equals the read/write ratio
// (reference value 5, per Silberstein et al.).
//
// It also defines the churn-op stream (ChurnOp) the online rescheduling
// subsystem ingests, and the one rule every rate must meet (ValidRate);
// the traces themselves are drawn by internal/scenario.
package workload

import (
	"fmt"
	"math"

	"piggyback/internal/graph"
)

// DefaultReadWriteRatio is the reference consumption/production ratio from
// the paper (§4.1).
const DefaultReadWriteRatio = 5.0

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

// ValidRate reports whether x is a usable rate: finite and non-negative.
// Validate, the scenario builder and replayer, and the incremental
// maintainer all apply this one rule, so a trace one of them accepts the
// others accept too.
func ValidRate(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// Rates holds per-user request rates. Prod[u] is the rate at which u
// shares events; Cons[u] is the rate at which u requests its event stream.
type Rates struct {
	Prod []float64
	Cons []float64
}

// NewUniform returns rates of 1 for production and ratio for consumption
// for every one of n users.
func NewUniform(n int, ratio float64) *Rates {
	r := &Rates{Prod: make([]float64, n), Cons: make([]float64, n)}
	for i := 0; i < n; i++ {
		r.Prod[i] = 1
		r.Cons[i] = ratio
	}
	return r
}

// LogDegree derives rates from g: production ∝ 1 + ln(1 + followers),
// consumption ∝ 1 + ln(1 + followees), then rescales consumption so that
// mean(Cons)/mean(Prod) = readWriteRatio. In our edge convention u → v
// means v subscribes to u, so u's followers are its out-neighbors and u's
// followees its in-neighbors.
func LogDegree(g *graph.Graph, readWriteRatio float64) *Rates {
	n := g.NumNodes()
	r := &Rates{Prod: make([]float64, n), Cons: make([]float64, n)}
	var sumP, sumC float64
	for u := 0; u < n; u++ {
		p := 1 + math.Log(1+float64(g.OutDegree(graph.NodeID(u))))
		c := 1 + math.Log(1+float64(g.InDegree(graph.NodeID(u))))
		r.Prod[u] = p
		r.Cons[u] = c
		sumP += p
		sumC += c
	}
	if n == 0 || sumC == 0 || sumP == 0 {
		return r
	}
	scale := readWriteRatio * sumP / sumC
	for u := range r.Cons {
		r.Cons[u] *= scale
	}
	return r
}

// WithRatio returns a copy of r with consumption rates rescaled so the
// mean consumption / mean production ratio equals readWriteRatio. Used by
// the Figure 9 sweep, which varies the read/write ratio on fixed graphs.
func (r *Rates) WithRatio(readWriteRatio float64) *Rates {
	out := &Rates{
		Prod: append([]float64(nil), r.Prod...),
		Cons: append([]float64(nil), r.Cons...),
	}
	var sumP, sumC float64
	for i := range r.Prod {
		sumP += r.Prod[i]
		sumC += r.Cons[i]
	}
	if sumC == 0 || sumP == 0 {
		return out
	}
	scale := readWriteRatio * sumP / sumC
	for i := range out.Cons {
		out.Cons[i] *= scale
	}
	return out
}

// Project returns the rates restricted to the given nodes, indexed by
// position: result user i carries the rates of nodes[i]. This is how a
// subgraph re-solve (graph.Induced) sees the global workload — local
// node ids map through the subgraph's Global slice.
func (r *Rates) Project(nodes []graph.NodeID) *Rates {
	out := &Rates{
		Prod: make([]float64, len(nodes)),
		Cons: make([]float64, len(nodes)),
	}
	for i, u := range nodes {
		out.Prod[i] = r.Prod[u]
		out.Cons[i] = r.Cons[u]
	}
	return out
}

// Validate checks the rates are usable for a graph with n nodes: correct
// length, non-negative, finite.
func (r *Rates) Validate(n int) error {
	if len(r.Prod) != n || len(r.Cons) != n {
		return fmt.Errorf("workload: rates cover %d/%d users, graph has %d nodes",
			len(r.Prod), len(r.Cons), n)
	}
	for i := 0; i < n; i++ {
		if !ValidRate(r.Prod[i]) || !ValidRate(r.Cons[i]) {
			return fmt.Errorf("workload: invalid rate for user %d: prod=%v cons=%v",
				i, r.Prod[i], r.Cons[i])
		}
	}
	return nil
}

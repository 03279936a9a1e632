package solver

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// BreakerState is the circuit-breaker state machine position:
// closed (primary serving) → open (primary quarantined) → half-open
// (probing the primary) → closed again on probe success, or back to
// open on probe failure.
type BreakerState uint8

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state in the conventional vocabulary.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a circuit breaker. The zero value uses the
// defaults.
type BreakerConfig struct {
	// Threshold is how many CONSECUTIVE hard failures of the primary
	// trip the breaker; 0 means 3.
	Threshold int
	// ProbeEvery is the half-open cadence: while tripped, every
	// ProbeEvery-th solve first probes the primary, closing the breaker
	// on success; 0 means 4.
	ProbeEvery int
	// OnTransition, when non-nil, observes every state change in order.
	// It is called OUTSIDE the breaker lock, after the transition took
	// effect, on the solving goroutine — so under the daemon's
	// sequential re-solves the emitted sequence is deterministic and
	// tests can pin it exactly (typically by appending to a
	// telemetry.EventLog). It must not call back into the breaker.
	OnTransition func(from, to BreakerState)
}

func (cfg BreakerConfig) withDefaults() BreakerConfig {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 4
	}
	return cfg
}

// BreakerStats counts what a Breaker has seen and done.
type BreakerStats struct {
	// PrimarySolves / FallbackSolves count which solver served each
	// request (a failed primary attempt followed by the fallback counts
	// once for each).
	PrimarySolves, FallbackSolves int
	// Failures counts hard primary failures (nil result with a non-
	// cancellation error); Trips counts closed→open transitions.
	Failures, Trips int
	// Probes counts half-open probe attempts; Closes counts open→closed
	// recoveries.
	Probes, Closes int
	// Open reports the current state.
	Open bool
}

// Breaker is a circuit breaker over two solvers: it serves from
// primary until Threshold consecutive hard failures, then quarantines
// the primary and serves from fallback, probing the primary every
// ProbeEvery-th solve (half-open) and closing again on the first
// probe success.
//
// A hard failure is a nil Result with an error that is not the
// caller's own cancellation: panics surfaced by WithRecover, typed
// solver errors, and deadline-expired solves that violated the anytime
// contract all count; a context.Canceled from the caller does not.
// Successful results — including valid best-so-far anytime results
// accompanied by a cancellation error — reset the failure streak.
//
// Safe for concurrent use, though solves themselves serialize per the
// underlying solver's own rules.
type Breaker struct {
	primary, fallback Solver
	cfg               BreakerConfig

	mu         sync.Mutex
	consec     int
	sinceProbe int
	state      BreakerState
	stats      BreakerStats
}

// transition moves the state machine while holding b.mu and returns the
// (from, to) pair for emission after unlock.
func (b *Breaker) transition(to BreakerState) [2]BreakerState {
	from := b.state
	b.state = to
	b.stats.Open = to != BreakerClosed
	return [2]BreakerState{from, to}
}

// emit fires OnTransition for each recorded transition, outside the
// lock.
func (b *Breaker) emit(trans [][2]BreakerState) {
	if b.cfg.OnTransition == nil {
		return
	}
	for _, t := range trans {
		b.cfg.OnTransition(t[0], t[1])
	}
}

// State returns the current state-machine position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// NewBreaker wraps primary with a quarantine-to-fallback circuit
// breaker. Wrap the primary in WithRecover first if it may panic.
func NewBreaker(primary, fallback Solver, cfg BreakerConfig) *Breaker {
	return &Breaker{primary: primary, fallback: fallback, cfg: cfg.withDefaults()}
}

// Name identifies the breaker and both members.
func (b *Breaker) Name() string {
	return fmt.Sprintf("breaker(%s->%s)", b.primary.Name(), b.fallback.Name())
}

// SupportsRegions requires BOTH members to be region-capable: either
// one may serve any given solve.
func (b *Breaker) SupportsRegions() bool {
	return SupportsRegions(b.primary) && SupportsRegions(b.fallback)
}

// ChainProgress implements ProgressChainer by forwarding to the primary
// only: a stopping rule wrapped around the breaker cuts the primary's
// solves and never sees, or cuts, the fallback's.
func (b *Breaker) ChainProgress(fn func(ProgressEvent)) { Observe(b.primary, fn) }

// Stats returns a copy of the breaker counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// hardFailure reports whether a solve outcome counts against the
// primary.
func hardFailure(ctx context.Context, res *Result, err error) bool {
	if res != nil || err == nil {
		return false
	}
	return !errors.Is(err, context.Canceled) || ctx.Err() == nil
}

// Solve implements Solver with the breaker discipline.
func (b *Breaker) Solve(ctx context.Context, p Problem) (*Result, error) {
	var trans [][2]BreakerState
	b.mu.Lock()
	open := b.state != BreakerClosed
	probe := false
	if open {
		b.sinceProbe++
		if b.sinceProbe >= b.cfg.ProbeEvery {
			b.sinceProbe = 0
			probe = true
			b.stats.Probes++
			trans = append(trans, b.transition(BreakerHalfOpen))
		}
	}
	b.mu.Unlock()
	b.emit(trans)

	if !open || probe {
		b.mu.Lock()
		b.stats.PrimarySolves++
		b.mu.Unlock()
		res, err := b.primary.Solve(ctx, p)
		if !hardFailure(ctx, res, err) {
			trans = nil
			b.mu.Lock()
			b.consec = 0
			if b.state != BreakerClosed {
				b.stats.Closes++
				trans = append(trans, b.transition(BreakerClosed))
			}
			b.mu.Unlock()
			b.emit(trans)
			return res, err
		}
		trans = nil
		b.mu.Lock()
		b.stats.Failures++
		b.consec++
		switch {
		case b.state == BreakerClosed && b.consec >= b.cfg.Threshold:
			b.stats.Trips++
			b.sinceProbe = 0
			trans = append(trans, b.transition(BreakerOpen))
		case b.state == BreakerHalfOpen:
			// Probe failed: back to fully open.
			trans = append(trans, b.transition(BreakerOpen))
		}
		nowOpen := b.state != BreakerClosed
		b.mu.Unlock()
		b.emit(trans)
		if !nowOpen {
			// Below threshold: surface the failure to the caller (the
			// daemon books it as a SolverError) rather than silently
			// absorbing every primary hiccup into fallback work.
			return res, err
		}
		// Tripped (or probing while tripped): fall through to fallback.
	}

	b.mu.Lock()
	b.stats.FallbackSolves++
	b.mu.Unlock()
	return b.fallback.Solve(ctx, p)
}

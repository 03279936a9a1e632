package solver

import (
	"context"
	"errors"
	"sync"
)

// Middleware wraps a Solver with cross-cutting behavior — tracing, a
// stopping rule — without the solver knowing. Middlewares compose by
// application, WithTracing(tr)(WithStop(stop)(s)), and preserve the
// wrapped solver's Name, region capability, and progress stream.
type Middleware func(Solver) Solver

// ProgressChainer is an optional interface a Solver implements to let
// wrappers attach additional progress sinks after construction (New
// binds Options.Progress at build time; middleware arrives later). Implementations must preserve previously attached sinks.
type ProgressChainer interface {
	ChainProgress(fn func(ProgressEvent))
}

// Observe attaches fn to s's progress stream when s supports chaining,
// reporting whether the attachment took effect. Existing sinks keep
// firing; fn runs after them on the solve goroutine.
func Observe(s Solver, fn func(ProgressEvent)) bool {
	if pc, ok := s.(ProgressChainer); ok {
		pc.ChainProgress(fn)
		return true
	}
	return false
}

// wrapped is the embeddable base of every shipped middleware: it
// forwards identity, region capability, and progress chaining to the
// inner solver, so a wrapped chitchat still reports Name "chitchat",
// still declares region support, and still streams progress.
type wrapped struct{ inner Solver }

func (w wrapped) Name() string { return w.inner.Name() }

// SupportsRegions implements RegionCapable by delegation.
func (w wrapped) SupportsRegions() bool { return SupportsRegions(w.inner) }

// ChainProgress implements ProgressChainer by delegation; a no-op when
// the inner solver has no progress stream (the one-shot baselines).
func (w wrapped) ChainProgress(fn func(ProgressEvent)) { Observe(w.inner, fn) }

// WithStop cancels a solve on its own progress: stop sees every progress
// event — a PARALLELNOSY round, a CHITCHAT greedy commit, a shard
// completion — with n, how many the solve has emitted so far, and stops
// the solve by returning true; it is called one event at a time under the
// wrapper's lock, so it may keep state but must not call into the solver.
// Unlike a wall-clock deadline the stop is DETERMINISTIC when the
// predicate is: events fire at iteration boundaries on the solve
// goroutine in an order independent of machine speed and worker count,
// and the solvers stop within one iteration of the cancellation, so two
// runs produce byte-identical schedules.
//
// The stop is NOT surfaced as an error: the result comes back with a
// nil error and Report.Canceled=true as the truncation marker. A cut
// solve that returned no result keeps its error, and cancellation of
// the caller's own context propagates as usual.
// Solvers without a progress stream (the baselines) are unaffected.
func WithStop(stop func(n int, ev ProgressEvent) bool) Middleware {
	return func(next Solver) Solver {
		s := &stopSolver{wrapped: wrapped{next}, stop: stop}
		Observe(next, s.onEvent)
		return s
	}
}

type stopSolver struct {
	wrapped
	stop func(n int, ev ProgressEvent) bool
	// mu orders events a composite solver emits from several goroutines.
	// cancel is non-nil while a solve runs that stop has not yet stopped,
	// n the events it has emitted.
	mu     sync.Mutex
	n      int
	cancel context.CancelFunc
}

func (s *stopSolver) onEvent(ev ProgressEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel == nil {
		return
	}
	s.n++
	if s.stop(s.n, ev) {
		s.cancel()
		s.cancel = nil
	}
}

func (s *stopSolver) Solve(ctx context.Context, p Problem) (*Result, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.mu.Lock()
	s.n, s.cancel = 0, cancel
	s.mu.Unlock()
	res, err := s.inner.Solve(sctx, p)
	s.mu.Lock()
	stopped := s.cancel == nil
	s.cancel = nil
	s.mu.Unlock()
	if stopped && res != nil && err != nil && ctx.Err() == nil && errors.Is(err, context.Canceled) {
		// The predicate, not the caller, stopped the solve: a deterministic
		// completion, not a cancellation. Report.Canceled stays true as
		// the truncation marker.
		return res, nil
	}
	return res, err
}

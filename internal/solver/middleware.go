package solver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"piggyback/internal/stats"
)

// Middleware wraps a Solver with cross-cutting behavior — metrics,
// logging, budgets — without the solver knowing. Middlewares compose
// with Chain and preserve the wrapped solver's Name, region capability,
// and progress stream.
type Middleware func(Solver) Solver

// Chain applies the middlewares to s left to right: the first is
// outermost, so Chain(s, a, b) solves through a(b(s)).
func Chain(s Solver, mws ...Middleware) Solver {
	for i := len(mws) - 1; i >= 0; i-- {
		if mws[i] != nil {
			s = mws[i](s)
		}
	}
	return s
}

// ProgressChainer is an optional interface a Solver implements to let
// wrappers attach additional progress sinks after construction (the
// factory binds Options.Progress at build time; middleware arrives
// later). Implementations must preserve previously attached sinks.
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

// WithMetrics records every solve into sink: wall time, iterations,
// progress events observed, final cost, cancellation and failure — the
// per-solver counters `cmd/experiments -middleware metrics` tabulates.
func WithMetrics(sink *stats.SolverMetrics) Middleware {
	return func(next Solver) Solver {
		m := &metricsSolver{wrapped: wrapped{next}, sink: sink}
		Observe(next, func(ProgressEvent) { m.events.Add(1) })
		return m
	}
}

type metricsSolver struct {
	wrapped
	sink   *stats.SolverMetrics
	events atomic.Int64 // cumulative across solves; per-solve = delta
}

func (m *metricsSolver) Solve(ctx context.Context, p Problem) (*Result, error) {
	before := m.events.Load()
	start := time.Now()
	res, err := m.inner.Solve(ctx, p)
	rec := stats.SolveRecord{
		Wall:   time.Since(start),
		Events: m.events.Load() - before,
		Failed: res == nil,
	}
	if res != nil {
		rec.Iterations = res.Report.Iterations
		rec.Cost = res.Report.Cost
		rec.Canceled = res.Report.Canceled
	}
	m.sink.Record(m.Name(), rec)
	return res, err
}

// WithLogging writes one line when a solve starts and one when it
// finishes (cost, iterations, wall time, error) through logf —
// typically log.Printf.
func WithLogging(logf func(format string, args ...any)) Middleware {
	return func(next Solver) Solver {
		return &loggingSolver{wrapped: wrapped{next}, logf: logf}
	}
}

type loggingSolver struct {
	wrapped
	logf func(format string, args ...any)
}

func (l *loggingSolver) Solve(ctx context.Context, p Problem) (*Result, error) {
	if p.Region == nil {
		l.logf("solver %s: solving %d nodes / %d edges", l.Name(), p.Graph.NumNodes(), p.Graph.NumEdges())
	} else {
		l.logf("solver %s: re-solving region of %d edges", l.Name(), len(p.Region))
	}
	start := time.Now()
	res, err := l.inner.Solve(ctx, p)
	switch {
	case res == nil:
		l.logf("solver %s: failed after %v: %v", l.Name(), time.Since(start).Round(time.Millisecond), err)
	case err != nil:
		l.logf("solver %s: canceled after %d iterations, %v (best-so-far cost %.1f): %v",
			l.Name(), res.Report.Iterations, time.Since(start).Round(time.Millisecond), res.Report.Cost, err)
	default:
		l.logf("solver %s: done in %d iterations, %v, cost %.1f",
			l.Name(), res.Report.Iterations, time.Since(start).Round(time.Millisecond), res.Report.Cost)
	}
	return res, err
}

// WithRecover converts ANY panic escaping Solve into a returned error.
// The built-ins already convert the typed library panics; this is the
// belt-and-braces wrapper for third-party registrants running inside a
// serving process.
func WithRecover() Middleware {
	return func(next Solver) Solver {
		return &recoverSolver{wrapped{next}}
	}
}

type recoverSolver struct{ wrapped }

func (rs *recoverSolver) Solve(ctx context.Context, p Problem) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("solver %s: panic: %v", rs.Name(), r)
		}
	}()
	return rs.inner.Solve(ctx, p)
}

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
// nil error and Report.Canceled=true as the truncation marker.
// Cancellation of the caller's own context propagates as usual.
// Solvers without a progress stream (the baselines) are unaffected.
func WithStop(stop func(n int, ev ProgressEvent) bool) Middleware {
	return func(next Solver) Solver {
		s := &stopSolver{wrapped: wrapped{next}, stop: stop}
		Observe(next, s.onEvent)
		return s
	}
}

// WithBudget is WithStop counting: it bounds a solve at `units` progress
// events, the deterministic work budget. Zero or less bounds nothing.
func WithBudget(units int) Middleware {
	return WithStop(func(n int, _ ProgressEvent) bool { return units > 0 && n >= units })
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
	if stopped && err != nil && ctx.Err() == nil && errors.Is(err, context.Canceled) {
		// The predicate, not the caller, stopped the solve: a deterministic
		// completion, not a cancellation. Report.Canceled stays true as
		// the truncation marker.
		return res, nil
	}
	return res, err
}

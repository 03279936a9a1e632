package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"piggyback/internal/telemetry"
)

// WithTracing records every solve as a span in tr's deterministic span
// tree: `solve/<name>` with the problem shape as Begin attributes and
// the outcome class (iterations, cost, error kind — never wall time) as
// End attributes. The span is pushed into the inner solver's context,
// so composite solvers that begin child spans (the sharded solver's
// per-shard solves, and nested WithTracing wrappers) nest under it,
// producing one tree for the whole solve.
//
// Wall-clock durations are recorded out-of-band via Tracer.SetDuration;
// the tree itself stays byte-identical across runs and worker counts as
// long as solves are issued in a deterministic order (sequential daemon
// re-solves qualify; see the telemetry package comment for the
// discipline composite solvers follow internally).
//
// A nil tracer returns the identity middleware.
func WithTracing(tr *telemetry.Tracer) Middleware {
	if tr == nil {
		return func(next Solver) Solver { return next }
	}
	return func(next Solver) Solver {
		return &tracingSolver{wrapped: wrapped{next}, tr: tr}
	}
}

type tracingSolver struct {
	wrapped
	tr *telemetry.Tracer
}

// problemAttrs renders the deterministic Begin attributes for p.
func problemAttrs(p Problem) string {
	if p.Region != nil {
		return fmt.Sprintf("region=%d", len(p.Region))
	}
	if p.Graph != nil {
		return fmt.Sprintf("nodes=%d edges=%d", p.Graph.NumNodes(), p.Graph.NumEdges())
	}
	return ""
}

// outcomeAttrs renders the deterministic End attributes for a solve
// outcome. Costs are deterministic here because schedules are; wall
// time never appears.
func outcomeAttrs(res *Result, err error) string {
	switch {
	case res == nil && err != nil:
		return "failed class=" + errClass(err)
	case res == nil:
		return "failed"
	}
	s := fmt.Sprintf("ok iters=%d", res.Report.Iterations)
	if !math.IsNaN(res.Report.Cost) {
		s += fmt.Sprintf(" cost=%.1f", res.Report.Cost)
	}
	if res.Report.Canceled {
		s += " canceled"
	}
	if err != nil {
		s += " class=" + errClass(err)
	}
	return s
}

// errClass buckets an error into a small deterministic vocabulary —
// error STRINGS can carry run-dependent detail, classes cannot.
func errClass(err error) string {
	switch {
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrRegionUnsupported):
		return "region-unsupported"
	case errors.Is(err, ErrRegionNotInduced):
		return "region-not-induced"
	case errors.Is(err, ErrNoGraph), errors.Is(err, ErrNoBase):
		return "bad-problem"
	default:
		return "error"
	}
}

func (ts *tracingSolver) Solve(ctx context.Context, p Problem) (*Result, error) {
	_, parent := telemetry.FromContext(ctx)
	id := ts.tr.Begin(parent, "solve/"+ts.Name(), problemAttrs(p))
	start := time.Now()
	res, err := ts.inner.Solve(telemetry.NewContext(ctx, ts.tr, id), p)
	ts.tr.SetDuration(id, time.Since(start))
	ts.tr.End(id, outcomeAttrs(res, err))
	return res, err
}

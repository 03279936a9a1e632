// Package solver defines the typed, cancellable, observable contract
// every scheduling algorithm in this repository implements — the API the
// cmd tools and the piggyback facade consume.
//
// The paper's algorithms (CHITCHAT §3.1, PARALLELNOSY §3.2, the
// FEEDINGFRENZY hybrid baseline of Silberstein et al.) share one
// abstraction: each is "a thing that produces a valid Theorem-1 schedule
// for (graph, rates)". Solver is that abstraction made explicit:
//
//	Solve(ctx context.Context, p Problem) (*Result, error)
//
// with two contracts layered on top of the batch facade it replaces:
//
//   - Cancellation (anytime semantics). The context is checked at
//     iteration granularity — a PARALLELNOSY round, a CHITCHAT greedy
//     commit — never per edge. On cancellation the solver stops within
//     one iteration, finalizes whatever it has (uncovered edges are
//     served directly via the hybrid rule), and returns the best-so-far
//     schedule TOGETHER with the context's error: Result is non-nil and
//     Result.Schedule passes Validate() even when err != nil, provided
//     errors.Is(err, context.Canceled) or context.DeadlineExceeded.
//   - Observability. Options.Progress streams ProgressEvents while the
//     solve runs (iteration stats, dirty-set size, running cost when
//     tracked), replacing the after-the-fact iteration slices.
//
// Both are implemented once, by the one built-in solver type: each
// algorithm is a function that returns its schedule, the iterations it ran
// and the context error that cut it short, and translates its own progress
// into ProgressEvents.
//
// New builds a solver by name from a fixed table of the six built-ins
// (Names lists them), which is what the cmd tools and the piggyback
// facade resolve a flag or a caller's name against. It lists algorithms
// only; DESIGN.md §10 has the measurement behind that. The online daemon
// does not go through this package: it calls chitchat.SolveCtx on each
// region itself, and traces the solve and runs its stopping rule on
// chitchat.Config.OnProgress.
package solver

import (
	"context"
	"errors"

	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

// Problem is one solve request: a graph and its workload rates.
type Problem struct {
	// Graph is the social graph to schedule. Required.
	Graph *graph.Graph
	// Rates is the workload (per-user production/consumption). Required.
	Rates *workload.Rates
}

// Report summarizes a finished (or canceled) solve.
type Report struct {
	// Solver is the name of the algorithm that ran.
	Solver string
	// Iterations is how many iterations ran: PARALLELNOSY rounds,
	// CHITCHAT greedy commits, shards for the sharded solver, 1 for the
	// one-shot baselines.
	Iterations int
	// Cost is the finalized schedule's cost under the problem rates.
	Cost float64
	// Canceled records that the solve was cut short by its context and
	// the schedule is the best-so-far anytime result.
	Canceled bool
}

// Result is the solver output: a Theorem-1-valid schedule and the run
// report. On the cancellation path both Result and the error are
// returned.
type Result struct {
	Schedule *core.Schedule
	Report   Report
}

// ProgressEvent is one live progress sample streamed to
// Options.Progress while a solve runs.
type ProgressEvent struct {
	// Solver is the name of the algorithm reporting.
	Solver string
	// Iteration counts iterations so far: the 0-based round for
	// PARALLELNOSY, the commit count for CHITCHAT, the shards solved for
	// the sharded solver.
	Iteration int
	// Dirty is the dirty-set size this round (hub edges re-evaluated;
	// PARALLELNOSY only).
	Dirty int
	// Candidates / FullCommits / PartialCommits / CoveredEdges are the
	// round's PARALLELNOSY iteration stats.
	Candidates     int
	FullCommits    int
	PartialCommits int
	CoveredEdges   int
	// Covered / Remaining are the served and still-unserved ground-set
	// edge counts for CHITCHAT; for the sharded solver, the solved
	// shard's edge count and the shards still to solve.
	Covered   int
	Remaining int
	// Cost is PARALLELNOSY's finalized-equivalent cost after the round,
	// or the solved shard's cost for the sharded solver; NaN for
	// CHITCHAT, which does not track it.
	Cost float64
}

// Options tunes a solver constructed by New. The zero value uses every
// default. Knobs that do not apply to a given algorithm are ignored.
type Options struct {
	// Workers is the parallelism degree; 0 means GOMAXPROCS. Read by
	// nosy, shard and chitchat (its seed phase; the greedy loop is
	// serial); the baselines do no work worth splitting. Schedules are
	// byte-identical for every worker count.
	Workers int
	// Shards is the partition count for the sharded solver; 0 means
	// auto-size from the edge count. Ignored by unsharded solvers.
	Shards int
	// Progress, when non-nil, receives ProgressEvents as the solve runs:
	// on the solve goroutine, but for shard on the worker that solved the
	// shard, one call at a time. It must return quickly and must not
	// mutate solver inputs.
	Progress func(ProgressEvent)
}

// Solver produces valid Theorem-1 schedules. Implementations are safe
// for reuse across calls but not necessarily for concurrent calls.
type Solver interface {
	// Name returns the solver's name.
	Name() string
	// Solve solves p under ctx. See the package comment for the
	// cancellation contract: a non-nil *Result accompanies a
	// context-cancellation error, and the schedule is valid either way.
	Solve(ctx context.Context, p Problem) (*Result, error)
}

// Sentinel errors returned by New and Solve.
var (
	// ErrUnknownSolver means New was given a name outside Names().
	ErrUnknownSolver = errors.New("solver: unknown solver")
	// ErrNoGraph means Problem.Graph or Problem.Rates was nil.
	ErrNoGraph = errors.New("solver: problem has no graph or no rates")
	// ErrBadRates means Problem.Rates does not cover every node of
	// Problem.Graph, or holds a negative, NaN or infinite rate for one.
	ErrBadRates = errors.New("solver: rates do not fit the graph")
)

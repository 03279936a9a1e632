// Package solver defines the typed, cancellable, observable contract
// every scheduling algorithm in this repository implements — the API the
// cmd tools, the examples, and the online rescheduling daemon consume.
//
// The paper's algorithms (CHITCHAT §3.1, PARALLELNOSY §3.2, the
// FEEDINGFRENZY hybrid baseline of Silberstein et al., and the localized
// restricted re-solves of the online subsystem) share one abstraction:
// each is "a thing that produces a valid Theorem-1 schedule for (graph,
// rates), possibly incrementally". Solver is that abstraction made
// explicit:
//
//	Solve(ctx context.Context, p Problem) (*Result, error)
//
// with three contracts layered on top of the batch facade it replaces:
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
//   - Typed failure. Library panics reachable from the public API are
//     recovered at the Solve boundary and surfaced as wrapped typed
//     errors (densest.ErrInstanceTooLarge, graph.ErrEdgeOutOfRange)
//     instead of crashing the serving process.
//
// Solvers are looked up by name in a Registry — a first-class value
// mapping names to factories; the package-wide Default instance is what
// the cmd tools and the piggyback facade use, and Clone() derives
// independent registries for tests and embedders. It lists algorithms
// only; DESIGN.md §10 has the measurement behind that. Cross-cutting
// concerns wrap any Solver through Middleware and Chain: WithTracing,
// WithRecover, WithStop (cancel on the solve's own progress,
// deterministically), and the Breaker that quarantines a failing solver
// behind a fallback.
package solver

import (
	"context"
	"errors"

	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

// Problem is one solve request: a graph, its workload rates, and — for
// localized re-solves — a base schedule plus the region to re-optimize.
type Problem struct {
	// Graph is the social graph to schedule. Required.
	Graph *graph.Graph
	// Rates is the workload (per-user production/consumption). Required.
	Rates *workload.Rates
	// Base is a valid schedule over Graph that a localized re-solve
	// starts from. Required when Region is set, ignored otherwise.
	Base *core.Schedule
	// Region restricts the solve to the given edge ids of Graph: only
	// region edges may be reassigned; everything else keeps its Base
	// assignment (boundary coverage may gain push/pull support flags —
	// the splice-validity rule of DESIGN.md §7). Nil means solve the
	// whole graph. Solvers that cannot re-solve regions return
	// ErrRegionUnsupported.
	Region []graph.EdgeID
}

// Report summarizes a finished (or canceled) solve.
type Report struct {
	// Solver is the registered name of the algorithm that ran.
	Solver string
	// Iterations is how many iterations ran: PARALLELNOSY rounds,
	// CHITCHAT greedy commits, 1 for the one-shot baselines.
	Iterations int
	// FullCommits / PartialCommits / CoveredEdges aggregate the
	// PARALLELNOSY iteration stats (zero for other solvers).
	FullCommits    int
	PartialCommits int
	CoveredEdges   int
	// BoundaryRepairs counts exterior coverage supports restored after
	// a restricted solve (always 0 for full solves).
	BoundaryRepairs int
	// Cost is the finalized schedule's cost under the problem rates.
	// For localized re-solves (Problem.Region set) it is NaN: callers
	// there post-process the patch before pricing it, so they ask the
	// schedule directly instead of paying an extra O(m) pass here.
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
	// Solver is the registered name of the algorithm reporting.
	Solver string
	// Iteration counts iterations so far: the 0-based round for
	// PARALLELNOSY, the commit count for CHITCHAT.
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
	// edge counts (CHITCHAT only).
	Covered   int
	Remaining int
	// Saved is what the commits so far have won over serving the edges
	// they covered directly (CHITCHAT only; chitchat.Progress.Saved).
	Saved float64
	// Cost is the current finalized cost when the solver tracks it
	// (PARALLELNOSY under Options.TraceCosts); NaN when not computed.
	Cost float64
}

// Options tunes a solver constructed through the registry. The zero
// value uses every default. Knobs that do not apply to a given
// algorithm are ignored; algorithm-specific configuration beyond these
// is available through the typed constructors (NewChitChat, NewNosy).
type Options struct {
	// Workers is the parallelism degree; 0 means GOMAXPROCS. Read by
	// nosy, shard and chitchat (its seed phase; the greedy loop is
	// serial); the baselines do no work worth splitting. Schedules are
	// byte-identical for every worker count.
	Workers int
	// MaxIterations bounds iterative solvers; 0 means run to
	// convergence.
	MaxIterations int
	// MaxCrossEdges is the per-hub cross-edge bound b of §4.2; 0 means
	// the algorithm default (100 000).
	MaxCrossEdges int
	// Shards is the partition count for the sharded solver; 0 means
	// auto-size from the edge count. Ignored by unsharded solvers.
	Shards int
	// TraceCosts makes PARALLELNOSY compute the finalized cost every
	// iteration (one O(m) pass + clone per round) so ProgressEvent.Cost
	// is live.
	TraceCosts bool
	// Progress, when non-nil, receives ProgressEvents on the solve
	// goroutine as the solve runs. It must return quickly and must not
	// mutate solver inputs.
	Progress func(ProgressEvent)
}

// Solver produces valid Theorem-1 schedules. Implementations are safe
// for reuse across calls but not necessarily for concurrent calls.
type Solver interface {
	// Name returns the solver's registered name.
	Name() string
	// Solve solves p under ctx. See the package comment for the
	// cancellation contract: a non-nil *Result accompanies a
	// context-cancellation error, and the schedule is valid either way.
	Solve(ctx context.Context, p Problem) (*Result, error)
}

// Sentinel errors returned by Solve.
var (
	// ErrNoGraph means Problem.Graph or Problem.Rates was nil.
	ErrNoGraph = errors.New("solver: problem has no graph or no rates")
	// ErrNoBase means Problem.Region was set without a Base schedule.
	ErrNoBase = errors.New("solver: region re-solve requires a base schedule")
	// ErrRegionUnsupported means the solver cannot do localized
	// re-solves (the baselines and the sharded solver).
	ErrRegionUnsupported = errors.New("solver: algorithm does not support region re-solves")
	// ErrRegionNotInduced means the region edge set is not the full
	// induced edge set of its endpoint nodes, which the subgraph-
	// extraction re-solvers require (re-solving a partial induced set
	// would rewrite edges outside the region).
	ErrRegionNotInduced = errors.New("solver: region is not the induced edge set of its endpoints")
)

// RegionCapable is an optional interface a Solver implements to declare
// up front whether it handles Problem.Region — letting consumers that
// depend on region re-solves (the online daemon) fail fast at
// configuration time instead of discovering ErrRegionUnsupported on the
// first triggered re-solve.
type RegionCapable interface {
	SupportsRegions() bool
}

// SupportsRegions reports whether s declares region-re-solve support.
// Solvers that do not implement RegionCapable are assumed capable; they
// still fail per-call with ErrRegionUnsupported if they are not.
func SupportsRegions(s Solver) bool {
	if rc, ok := s.(RegionCapable); ok {
		return rc.SupportsRegions()
	}
	return true
}

// checkProblem validates the request shape shared by all solvers.
func checkProblem(p Problem) error {
	if p.Graph == nil || p.Rates == nil {
		return ErrNoGraph
	}
	if p.Region != nil && p.Base == nil {
		return ErrNoBase
	}
	return nil
}

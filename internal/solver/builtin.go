package solver

import (
	"context"
	"fmt"
	"math"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/nosy"
	"piggyback/internal/shard"
	"piggyback/internal/workload"
)

// The built-in solver names: the paper's two algorithms, the sharded
// composite, and the three baselines. The set is closed; New and Names
// are the whole lookup.
const (
	ChitChat = "chitchat"
	Nosy     = "nosy"
	Shard    = "shard"
	Hybrid   = "hybrid"
	PushAll  = "pushall"
	PullAll  = "pullall"
)

// Names returns the built-in solver names, sorted.
func Names() []string {
	return []string{ChitChat, Hybrid, Nosy, PullAll, PushAll, Shard}
}

// New builds the named built-in solver under opts, or returns an error
// wrapping ErrUnknownSolver that lists the valid names — the name
// usually arrives from a flag.
func New(name string, opts Options) (Solver, error) {
	switch name {
	case ChitChat:
		return &chitchatSolver{chitchat.Config{Workers: opts.Workers}, opts.Progress}, nil
	case Nosy:
		return &nosySolver{nosy.Config{Workers: opts.Workers}, opts.Progress}, nil
	case Shard:
		return &shardSolver{shard.Config{Shards: opts.Shards, Workers: opts.Workers}, opts.Progress}, nil
	case Hybrid, PushAll, PullAll:
		return baselineSolver{name}, nil
	}
	return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownSolver, name, Names())
}

// finish assembles the Result for a completed (or canceled) solve.
// cause is nil or the context error that cut the solve short; it is
// passed through so callers keep the best-so-far schedule alongside it.
func finish(name string, s *core.Schedule, p Problem, rep Report, cause error) (*Result, error) {
	rep.Solver = name
	rep.Cost = s.Cost(p.Rates)
	rep.Canceled = cause != nil
	return &Result{Schedule: s, Report: rep}, cause
}

// chitchatSolver adapts the CHITCHAT approximation to the Solver
// contract. Each adapter streams to progress, Options.Progress as New
// was given it (nil from the typed constructors).
type chitchatSolver struct {
	cfg      chitchat.Config
	progress func(ProgressEvent)
}

// NewChitChat returns the CHITCHAT solver under a full typed config —
// the constructor for callers that need knobs beyond Options (the
// cross-edge bound, the per-commit OnProgress hook).
func NewChitChat(cfg chitchat.Config) Solver { return &chitchatSolver{cfg: cfg} }

func (s *chitchatSolver) Name() string { return ChitChat }

func (s *chitchatSolver) Solve(ctx context.Context, p Problem) (*Result, error) {
	if err := checkProblem(p); err != nil {
		return nil, err
	}
	// Count greedy commits through the progress hook (after the config's
	// own hook) so the report's iteration count is exact.
	cfg := s.cfg
	commits := 0
	prev := cfg.OnProgress
	cfg.OnProgress = func(pr chitchat.Progress) {
		commits = pr.Commits
		if prev != nil {
			prev(pr)
		}
		if s.progress != nil {
			s.progress(ProgressEvent{
				Solver:    ChitChat,
				Iteration: pr.Commits,
				Covered:   pr.Covered,
				Remaining: pr.Remaining,
				Cost:      math.NaN(),
			})
		}
	}
	sched, cause := chitchat.SolveCtx(ctx, p.Graph, p.Rates, cfg)
	return finish(ChitChat, sched, p, Report{Iterations: commits}, cause)
}

// nosySolver adapts PARALLELNOSY to the Solver contract.
type nosySolver struct {
	cfg      nosy.Config
	progress func(ProgressEvent)
}

func (s *nosySolver) Name() string { return Nosy }

func (s *nosySolver) Solve(ctx context.Context, p Problem) (*Result, error) {
	if err := checkProblem(p); err != nil {
		return nil, err
	}
	cfg := s.cfg
	if s.progress != nil {
		cfg.OnIteration = func(it nosy.IterationStat) {
			s.progress(ProgressEvent{
				Solver:         Nosy,
				Iteration:      it.Iteration,
				Dirty:          it.Dirty,
				Candidates:     it.Candidates,
				FullCommits:    it.FullCommits,
				PartialCommits: it.PartialCommits,
				CoveredEdges:   it.CoveredEdges,
				Cost:           it.Cost,
			})
		}
	}
	nr, cause := nosy.SolveCtx(ctx, p.Graph, p.Rates, cfg)
	return finish(Nosy, nr.Schedule, p, Report{Iterations: len(nr.Iterations)}, cause)
}

// shardSolver adapts the sharded composite (internal/shard): every
// shard is a single-threaded CHITCHAT solve on its shard worker's
// goroutine.
type shardSolver struct {
	cfg      shard.Config
	progress func(ProgressEvent)
}

func (s *shardSolver) Name() string { return Shard }

func (s *shardSolver) Solve(ctx context.Context, p Problem) (*Result, error) {
	if err := checkProblem(p); err != nil {
		return nil, err
	}
	cfg := s.cfg
	if s.progress != nil {
		prev := cfg.OnProgress
		cfg.OnProgress = func(pr shard.Progress) {
			if prev != nil {
				prev(pr)
			}
			s.progress(ProgressEvent{
				Solver:    Shard,
				Iteration: pr.Solved,
				Covered:   pr.Edges,
				Remaining: pr.Shards - pr.Solved,
				Cost:      pr.Cost,
			})
		}
	}
	sr, cause := shard.SolveCtx(ctx, p.Graph, p.Rates, cfg, solveShardChitChat)
	if sr.Schedule == nil {
		return nil, fmt.Errorf("solver %s: %w", Shard, cause)
	}
	return finish(Shard, sr.Schedule, p, Report{Iterations: sr.Shards}, cause)
}

// solveShardChitChat is the shard.SolveFunc of the sharded solver: one
// single-threaded CHITCHAT solve.
func solveShardChitChat(ctx context.Context, g *graph.Graph, r *workload.Rates) (*core.Schedule, error) {
	return chitchat.SolveCtx(ctx, g, r, chitchat.Config{Workers: 1})
}

// baselineSolver adapts the one-shot baselines. They are instantaneous,
// so the context is only consulted once: a pre-canceled context still
// yields the (valid) baseline schedule alongside its error, per the
// anytime contract.
type baselineSolver struct{ name string }

func (s baselineSolver) Name() string { return s.name }

func (s baselineSolver) Solve(ctx context.Context, p Problem) (*Result, error) {
	if err := checkProblem(p); err != nil {
		return nil, err
	}
	var sched *core.Schedule
	switch s.name {
	case PushAll:
		sched = baseline.PushAll(p.Graph)
	case PullAll:
		sched = baseline.PullAll(p.Graph)
	default:
		sched = baseline.Hybrid(p.Graph, p.Rates)
	}
	return finish(s.name, sched, p, Report{Iterations: 1}, ctx.Err())
}

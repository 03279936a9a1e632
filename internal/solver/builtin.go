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
		// The greedy commits are counted through the progress hook, so
		// the report's iteration count is exact.
		return builtin{ChitChat, func(ctx context.Context, p Problem) (*core.Schedule, int, error) {
			commits := 0
			cfg := chitchat.Config{Workers: opts.Workers, OnProgress: func(pr chitchat.Progress) {
				commits = pr.Commits
				if opts.Progress != nil {
					opts.Progress(ProgressEvent{
						Solver:    ChitChat,
						Iteration: pr.Commits,
						Covered:   pr.Covered,
						Remaining: pr.Remaining,
						Cost:      math.NaN(),
					})
				}
			}}
			s, cause := chitchat.SolveCtx(ctx, p.Graph, p.Rates, cfg)
			return s, commits, cause
		}}, nil
	case Nosy:
		return builtin{Nosy, func(ctx context.Context, p Problem) (*core.Schedule, int, error) {
			rounds := 0
			cfg := nosy.Config{Workers: opts.Workers, OnIteration: func(it nosy.IterationStat) {
				rounds++
				if opts.Progress != nil {
					opts.Progress(ProgressEvent{
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
			}}
			s, cause := nosy.SolveCtx(ctx, p.Graph, p.Rates, cfg)
			return s, rounds, cause
		}}, nil
	case Shard:
		// Every shard is a single-threaded CHITCHAT solve on its shard
		// worker's goroutine.
		return builtin{Shard, func(ctx context.Context, p Problem) (*core.Schedule, int, error) {
			cfg := shard.Config{Shards: opts.Shards, Workers: opts.Workers}
			if opts.Progress != nil {
				cfg.OnProgress = func(pr shard.Progress) {
					opts.Progress(ProgressEvent{
						Solver:    Shard,
						Iteration: pr.Solved,
						Covered:   pr.Edges,
						Remaining: pr.Shards - pr.Solved,
						Cost:      pr.Cost,
					})
				}
			}
			sr, cause := shard.SolveCtx(ctx, p.Graph, p.Rates, cfg, solveShardChitChat)
			return sr.Schedule, sr.Shards, cause
		}}, nil
	case Hybrid, PushAll, PullAll:
		// The one-shot baselines are instantaneous, so the context is only
		// consulted once: a pre-canceled context still yields the (valid)
		// baseline schedule alongside its error.
		return builtin{name, func(ctx context.Context, p Problem) (*core.Schedule, int, error) {
			switch name {
			case PushAll:
				return baseline.PushAll(p.Graph), 1, ctx.Err()
			case PullAll:
				return baseline.PullAll(p.Graph), 1, ctx.Err()
			}
			return baseline.Hybrid(p.Graph, p.Rates), 1, ctx.Err()
		}}, nil
	}
	return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownSolver, name, Names())
}

// builtin is every built-in solver: its name, and the algorithm as one
// function that returns the schedule, the iterations it ran and the
// context error that cut it short, if any.
type builtin struct {
	name string
	run  func(ctx context.Context, p Problem) (*core.Schedule, int, error)
}

func (b builtin) Name() string { return b.name }

// Solve implements the Solver contract once for every built-in: it checks
// the problem (the rates must pass Rates.Validate for the graph), runs the
// algorithm, and returns the best-so-far schedule together with the error
// that cut the solve short. A run that returns no schedule failed (a shard
// solve's error) and yields no Result.
func (b builtin) Solve(ctx context.Context, p Problem) (*Result, error) {
	if p.Graph == nil || p.Rates == nil {
		return nil, ErrNoGraph
	}
	if err := p.Rates.Validate(p.Graph.NumNodes()); err != nil {
		return nil, fmt.Errorf("solver %s: %w: %v", b.name, ErrBadRates, err)
	}
	s, iterations, cause := b.run(ctx, p)
	if s == nil {
		return nil, fmt.Errorf("solver %s: %w", b.name, cause)
	}
	rep := Report{Solver: b.name, Iterations: iterations, Cost: s.Cost(p.Rates), Canceled: cause != nil}
	return &Result{Schedule: s, Report: rep}, cause
}

// solveShardChitChat is the shard.SolveFunc of the sharded solver: one
// single-threaded CHITCHAT solve.
func solveShardChitChat(ctx context.Context, g *graph.Graph, r *workload.Rates) (*core.Schedule, error) {
	return chitchat.SolveCtx(ctx, g, r, chitchat.Config{Workers: 1})
}

// Command schedule computes a request schedule for a social graph and
// reports its cost against the baselines. Algorithms are selected by
// name from the built-in solvers, run under a cancellable context
// (Ctrl-C or -timeout returns the best-so-far valid schedule), and
// report live progress with -progress.
//
// Usage:
//
//	schedule -graph twitter.graph -algo nosy -ratio 5
//	graphgen -preset flickr -nodes 2000 | schedule -algo chitchat -progress
//	schedule -graph big.graph -algo nosy -timeout 30s
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/graph"
	"piggyback/internal/graphio"
	"piggyback/internal/schedio"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

func main() {
	var (
		path     = flag.String("graph", "", "graph file (binary or text; default stdin, binary)")
		text     = flag.Bool("text", false, "graph file is in text format")
		algo     = flag.String("algo", "nosy", "algorithm: "+strings.Join(solver.Names(), " | "))
		ratio    = flag.Float64("ratio", workload.DefaultReadWriteRatio, "read/write ratio for the log-degree workload")
		workers  = flag.Int("workers", 0, "solver parallelism (0 = all cores; chitchat uses them for its seed phase only)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget; on expiry the best-so-far valid schedule is reported")
		progress = flag.Bool("progress", false, "print live per-iteration progress")
		out      = flag.String("o", "", "save the schedule to this file (schedio format)")
	)
	flag.Parse()

	g, err := loadGraph(*path, *text)
	if err != nil {
		fatalf("loading graph: %v", err)
	}
	r := workload.LogDegree(g, *ratio)

	opts := solver.Options{Workers: *workers}
	if *progress {
		opts.Progress = func(ev solver.ProgressEvent) { printProgress(os.Stderr, ev) }
	}
	sv, err := solver.New(*algo, opts)
	if err != nil {
		fatalf("%v", err)
	}

	// Ctrl-C and -timeout both cancel the solve; the anytime contract
	// still hands us a valid schedule to report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	res, err := sv.Solve(ctx, solver.Problem{Graph: g, Rates: r})
	if err != nil && res == nil {
		fatalf("solving: %v", err)
	}
	s := res.Schedule

	if err := s.Validate(); err != nil {
		fatalf("schedule invalid: %v", err)
	}
	hybrid := baseline.HybridCost(g, r)
	counts := s.Counts()
	fmt.Printf("graph:        %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("algorithm:    %s (read/write ratio %.1f, %v)\n", res.Report.Solver, *ratio, time.Since(start).Round(time.Millisecond))
	if res.Report.Canceled {
		fmt.Printf("NOTE:         solve canceled after %d iterations (%v); schedule is valid best-so-far\n",
			res.Report.Iterations, err)
	}
	fmt.Printf("cost:         %.1f\n", res.Report.Cost)
	fmt.Printf("hybrid cost:  %.1f\n", hybrid)
	fmt.Printf("improvement:  %.3fx\n", hybrid/res.Report.Cost)
	fmt.Printf("push edges:   %d\n", counts.Push)
	fmt.Printf("pull edges:   %d\n", counts.Pull)
	fmt.Printf("hub-covered:  %d\n", counts.Covered)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("creating %s: %v", *out, err)
		}
		defer f.Close()
		if err := schedio.Write(f, s); err != nil {
			fatalf("saving schedule: %v", err)
		}
		fmt.Printf("schedule saved to %s\n", *out)
	}
}

// printProgress renders one live line per event: iteration stats for
// NOSY's rounds, one line per solved shard, a sampled coverage line for
// CHITCHAT's per-commit stream.
func printProgress(w io.Writer, ev solver.ProgressEvent) {
	switch ev.Solver {
	case solver.ChitChat:
		// One line every 1024 commits plus the final one keeps the
		// stream readable on large graphs.
		if ev.Iteration%1024 != 0 && ev.Remaining != 0 {
			return
		}
		fmt.Fprintf(w, "commit %7d: covered=%d remaining=%d\n",
			ev.Iteration, ev.Covered, ev.Remaining)
	case solver.Shard:
		fmt.Fprintf(w, "shard %d/%d: edges=%d cost=%.1f\n",
			ev.Iteration, ev.Iteration+ev.Remaining, ev.Covered, ev.Cost)
	default:
		fmt.Fprintf(w, "iteration %3d: dirty=%d candidates=%d commits=%d+%d covered=%d cost=%.1f\n",
			ev.Iteration+1, ev.Dirty, ev.Candidates, ev.FullCommits, ev.PartialCommits, ev.CoveredEdges, ev.Cost)
	}
}

func loadGraph(path string, text bool) (*graph.Graph, error) {
	var r io.Reader = bufio.NewReader(os.Stdin)
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = bufio.NewReader(f)
	}
	if text {
		g, err := graphio.ReadText(r)
		if errors.Is(err, graph.ErrEdgeOutOfRange) {
			err = fmt.Errorf("%w (is the node count header right?)", err)
		}
		return g, err
	}
	return graphio.ReadBinary(r)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "schedule: "+format+"\n", args...)
	os.Exit(1)
}

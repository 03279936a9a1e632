package chitchat

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/schedio"
	"piggyback/internal/workload"
)

func scheduleDigest(t *testing.T, s *core.Schedule) string {
	t.Helper()
	var buf bytes.Buffer
	if err := schedio.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// seedWorkers are the worker counts the pinned tests repeat at: the serial
// seed, two workers, and three — which does not divide seedBlock. The tests
// raise GOMAXPROCS to 4 so that three goroutines run on a smaller machine.
var seedWorkers = []int{1, 2, 3}

func fourProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// pinnedCase is one solve TestSchedulesMatchShipped pins by digest.
type pinnedCase struct {
	name string
	g    *graph.Graph
	r    *workload.Rates
	cfg  Config
	want string
}

// pinnedCases builds the graphs of TestSchedulesMatchShipped, which
// TestSavedIsExact shares.
func pinnedCases(t *testing.T) []pinnedCase {
	t.Helper()
	var out []pinnedCase
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{2018, "66d9469defd4efbbd77012a99ba37e68fbdd5362b0487bcfdafcf540c082d70d"},
		{2030, "a08127b1f7aec405b988019de3ffd0a70e4b0c76bbf1c85877b6ca312475804b"},
		{7063, "14beaa2bd4ba8469292859e3164a6c6bd4389c9e6b1f57b3535b390268f27126"},
	} {
		g := graphgen.Social(graphgen.FlickrLike(500, tc.seed))
		out = append(out, pinnedCase{fmt.Sprintf("FlickrLike(500, %d)", tc.seed), g, workload.LogDegree(g, 5), Config{}, tc.want})
	}

	g := graphgen.Social(graphgen.FlickrLike(150, 1))
	out = append(out, pinnedCase{"MaxCrossEdges=8", g, workload.LogDegree(g, 5), Config{MaxCrossEdges: 8},
		"952ffffae8f4378d4502dc107fa47cbe4a5a6e23db183b15834560a997b05f01"})

	// End states of two zoo traces, the geometry of TestReplayMatchesRePeelOnZoo.
	g = graphgen.Social(graphgen.FlickrLike(300, 11))
	base := workload.LogDegree(g, 5)
	for _, tc := range []struct{ name, want string }{
		{"flashcrowd", "0246b06304f58f615be0bc840edee5f4475288e0fafd131ef822682f80df23cb"},
		{"cascade", "12447a2da7f0b47f2b5e25289eb1ef6796a98064ddeaae65a975fc919d6bbe51"},
	} {
		endG, endR := zooEndState(t, g, base, tc.name)
		out = append(out, pinnedCase{tc.name, endG, endR, Config{}, tc.want})
	}

	sub, r := stallRegion(t)
	return append(out, pinnedCase{"SolveInduced", sub.G, r, Config{},
		"9a7510bf541208b4cb53c5dcdb4e24271f95b8a0251a0523ac771684a0b63390"})
}

// stallRegion is a daemon re-solve region — 768 nodes around one seed of
// a streamed 120k-edge graph, churn_local's stall — with its projected
// rates: what SolveInduced solves.
func stallRegion(t *testing.T) (*graph.Subgraph, *workload.Rates) {
	t.Helper()
	sub, r := stallRegionOnce()
	if sub.G.NumNodes() != 768 {
		t.Fatalf("region has %d nodes, want 768", sub.G.NumNodes())
	}
	return sub, r
}

// Built once: four tests solve it and nothing writes to a graph or to rates.
var stallRegionOnce = sync.OnceValues(func() (*graph.Subgraph, *workload.Rates) {
	g := graphgen.StreamSocial(graphgen.FlickrLikeEdges(120_000, 7))
	sub := graph.Induced(g, graph.KHop(g, []graph.NodeID{1000}, 2, 768))
	return sub, workload.LogDegree(g, 5).Project(sub.Global)
})

// TestSchedulesMatchShipped holds the solver to the schedules it produced
// at commit 620e9d3 (PR 18), before the worker fan-out, the spill store,
// the member ring and the refresh-width knob were removed: each literal
// is sha256(schedio.Write(schedule)) taken there. FlickrLike(500, 2030) is
// the guard for the refresh order — it moves if refreshWidth, the pop
// order of refreshHead or a queue tie-break does (DESIGN.md §14). Every
// seed worker count must land on the same bytes.
func TestSchedulesMatchShipped(t *testing.T) {
	fourProcs(t)
	for _, tc := range pinnedCases(t) {
		for _, workers := range seedWorkers {
			cfg := tc.cfg
			cfg.Workers = workers
			s := Solve(tc.g, tc.r, cfg)
			if err := s.Validate(); err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if got := scheduleDigest(t, s); got != tc.want {
				t.Errorf("%s workers=%d: schedule digest %s, shipped %s", tc.name, workers, got, tc.want)
			}
		}
	}
}

// Progress.Saved is exact, on the graphs TestSchedulesMatchShipped pins:
// the hybrid cost less the last Saved is the cost of the schedule, for an
// exhausted solve and for one cut at its 64th commit alike (Finalize
// serves what a cut leaves at c*, which is what Saved has not claimed),
// and the stream ends on the same snapshot at every seed worker count.
func TestSavedIsExact(t *testing.T) {
	fourProcs(t)
	for _, tc := range pinnedCases(t) {
		for _, cut := range []int{0, 64} {
			var first Progress
			for _, workers := range seedWorkers {
				ctx, cancel := context.WithCancel(context.Background())
				var last Progress
				cfg := tc.cfg
				cfg.Workers = workers
				cfg.OnProgress = func(p Progress) {
					last = p
					if p.Commits == cut {
						cancel()
					}
				}
				s, err := SolveCtx(ctx, tc.g, tc.r, cfg)
				cancel()
				if (err != nil) != (cut > 0) {
					t.Fatalf("%s cut=%d: err = %v after %d commits", tc.name, cut, err, last.Commits)
				}
				cost, want := s.Cost(tc.r), baseline.HybridCost(tc.g, tc.r)-last.Saved
				if math.Abs(cost-want) > 1e-9*cost {
					t.Errorf("%s cut=%d: hybrid − Saved = %v, schedule costs %v (%d commits)", tc.name, cut, want, cost, last.Commits)
				}
				if workers == seedWorkers[0] {
					first = last
				} else if last != first {
					t.Errorf("%s cut=%d workers=%d: last progress %+v, at one worker %+v", tc.name, cut, workers, last, first)
				}
			}
		}
	}
}

package chitchat

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
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

// TestSchedulesMatchShipped holds the solver to the schedules it produced
// at commit 620e9d3 (PR 18), before the worker fan-out, the spill store,
// the member ring and the refresh-width knob were removed: each literal
// is sha256(schedio.Write(schedule)) taken there. FlickrLike(500, 2030) is
// the guard for the refresh order — it moves if refreshWidth, the pop
// order of refreshHead or a queue tie-break does (DESIGN.md §14).
func TestSchedulesMatchShipped(t *testing.T) {
	check := func(name string, s *core.Schedule, want string) {
		t.Helper()
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := scheduleDigest(t, s); got != want {
			t.Errorf("%s: schedule digest %s, shipped %s", name, got, want)
		}
	}

	for _, tc := range []struct {
		seed int64
		want string
	}{
		{2018, "66d9469defd4efbbd77012a99ba37e68fbdd5362b0487bcfdafcf540c082d70d"},
		{2030, "a08127b1f7aec405b988019de3ffd0a70e4b0c76bbf1c85877b6ca312475804b"},
		{7063, "14beaa2bd4ba8469292859e3164a6c6bd4389c9e6b1f57b3535b390268f27126"},
	} {
		g := graphgen.Social(graphgen.FlickrLike(500, tc.seed))
		check(fmt.Sprintf("FlickrLike(500, %d)", tc.seed), Solve(g, workload.LogDegree(g, 5), Config{}), tc.want)
	}

	g := graphgen.Social(graphgen.FlickrLike(150, 1))
	check("MaxCrossEdges=8", Solve(g, workload.LogDegree(g, 5), Config{MaxCrossEdges: 8}),
		"952ffffae8f4378d4502dc107fa47cbe4a5a6e23db183b15834560a997b05f01")

	// End states of two zoo traces, the geometry of TestReplayMatchesRePeelOnZoo.
	g = graphgen.Social(graphgen.FlickrLike(300, 11))
	base := workload.LogDegree(g, 5)
	for _, tc := range []struct{ name, want string }{
		{"flashcrowd", "0246b06304f58f615be0bc840edee5f4475288e0fafd131ef822682f80df23cb"},
		{"cascade", "12447a2da7f0b47f2b5e25289eb1ef6796a98064ddeaae65a975fc919d6bbe51"},
	} {
		endG, endR := zooEndState(t, g, base, tc.name)
		check(tc.name, Solve(endG, endR, Config{}), tc.want)
	}

	// A daemon re-solve region: 768 nodes around one seed of a streamed
	// 120k-edge graph.
	g = graphgen.StreamSocial(graphgen.FlickrLikeEdges(120_000, 7))
	sub := graph.Induced(g, graph.KHop(g, []graph.NodeID{1000}, 2, 768))
	if sub.G.NumNodes() != 768 {
		t.Fatalf("region has %d nodes, want 768", sub.G.NumNodes())
	}
	check("SolveInduced", SolveInduced(sub, workload.LogDegree(g, 5), Config{}),
		"9a7510bf541208b4cb53c5dcdb4e24271f95b8a0251a0523ac771684a0b63390")
}

// Progress.Saved is exact, on the graphs TestSchedulesMatchShipped pins:
// the hybrid cost less the last Saved is the cost of the schedule, for an
// exhausted solve and for one cut at its 64th commit alike (Finalize
// serves what a cut leaves at c*, which is what Saved has not claimed).
func TestSavedIsExact(t *testing.T) {
	check := func(name string, g *graph.Graph, r *workload.Rates, cfg Config) {
		t.Helper()
		for _, cut := range []int{0, 64} {
			ctx, cancel := context.WithCancel(context.Background())
			var last Progress
			cfg.OnProgress = func(p Progress) {
				last = p
				if p.Commits == cut {
					cancel()
				}
			}
			s, err := SolveCtx(ctx, g, r, cfg)
			cancel()
			if (err != nil) != (cut > 0) {
				t.Fatalf("%s cut=%d: err = %v after %d commits", name, cut, err, last.Commits)
			}
			cost, want := s.Cost(r), baseline.HybridCost(g, r)-last.Saved
			if math.Abs(cost-want) > 1e-9*cost {
				t.Errorf("%s cut=%d: hybrid − Saved = %v, schedule costs %v (%d commits)", name, cut, want, cost, last.Commits)
			}
		}
	}
	for _, seed := range []int64{2018, 2030, 7063} {
		g := graphgen.Social(graphgen.FlickrLike(500, seed))
		check(fmt.Sprintf("FlickrLike(500, %d)", seed), g, workload.LogDegree(g, 5), Config{})
	}
	g := graphgen.Social(graphgen.FlickrLike(150, 1))
	check("MaxCrossEdges=8", g, workload.LogDegree(g, 5), Config{MaxCrossEdges: 8})
	g = graphgen.Social(graphgen.FlickrLike(300, 11))
	for _, name := range []string{"flashcrowd", "cascade"} {
		endG, endR := zooEndState(t, g, workload.LogDegree(g, 5), name)
		check(name, endG, endR, Config{})
	}
	g = graphgen.StreamSocial(graphgen.FlickrLikeEdges(120_000, 7))
	sub := graph.Induced(g, graph.KHop(g, []graph.NodeID{1000}, 2, 768))
	check("SolveInduced", sub.G, workload.LogDegree(g, 5).Project(sub.Global), Config{})
}

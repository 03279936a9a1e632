package online

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/scenario"
	"piggyback/internal/schedio"
	"piggyback/internal/solver"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// The first stall of the repo benchmark's churn_local at seed 7·1009+1:
// the 768-node region around node 75 of the streamed 120k-edge graph,
// 31 457 edges, incumbent a churned NOSY schedule. stallCurve[i] is
// Progress.Saved after commit 64·(i+1) of an unstopped CHITCHAT solve of
// it, which ends at 12 714 commits on 69 300.5.
const stallHybrid, stallIncumbent = 183823.98476657356, 125810.83903390726

var stallCurve = []float64{
	19420.225818850355, 33258.04195941032, 37236.902723671374, 46179.54031236352,
	52786.692535473165, 53087.824601325774, 57789.498995153495, 61340.43003112295,
	62081.448165780435, 64733.41755910884, 65486.3870712446, 65658.4570854425,
	65775.74687512877, 66814.17082107977,
}

// firesAt feeds the rule a progress stream — saved[i] after commit
// every·(i+1), and the same value again one commit later — and returns
// the commits at which it fired.
func firesAt(a *attempt, every int, saved []float64) (fired []int) {
	for i, s := range saved {
		for _, commit := range []int{every * (i + 1), every*(i+1) + 1} {
			if a.stop(commit, solver.ProgressEvent{Saved: s}) {
				fired = append(fired, commit)
			}
		}
	}
	return fired
}

func TestStopRulePredicate(t *testing.T) {
	flat := []float64{100, 100, 100, 100}
	for _, tc := range []struct {
		name              string
		hybrid, incumbent float64
		every             int
		saved             []float64
		want              []int
	}{
		// The solve leads the incumbent from commit 512 on (Saved above
		// 58 013.1); the 64 commits before 576, 640 and 704 still add
		// 1.19%, 4.10% and 1.15%, those before 768 add 0.26%.
		{"recorded stall", stallHybrid, stallIncumbent, stopEvery, stallCurve, []int{768, 832}},
		// The same curve against an incumbent it never catches: the tail
		// is as flat, and the rule holds its hand.
		{"never ahead", stallHybrid, stallHybrid - 70000, stopEvery, stallCurve, nil},
		{"level with the incumbent is not ahead", 1000, 900, stopEvery, flat, nil},
		{"flat and ahead", 1000, 901, stopEvery, flat, []int{128, 192, 256}},
		{"off the boundary", 1000, 901, stopEvery + 1, flat, nil},
		// NOSY's rounds carry no Saved: even an incumbent dearer than
		// hybrid (an edge paid both ways) does not satisfy the second half.
		{"no Saved streamed", 1000, 1100, stopEvery, []float64{0, 0, 0}, nil},
	} {
		a := &attempt{hybrid: tc.hybrid, incumbent: tc.incumbent}
		if got := firesAt(a, tc.every, tc.saved); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fired at %v, want %v", tc.name, got, tc.want)
		}
	}
}

// validating checks every patch a solver hands back, the truncated ones
// included, and keeps the solver's progress stream reachable.
type validating struct {
	solver.Solver
	t         *testing.T
	truncated int
}

func (v *validating) ChainProgress(fn func(solver.ProgressEvent)) { solver.Observe(v.Solver, fn) }

func (v *validating) Solve(ctx context.Context, p solver.Problem) (*solver.Result, error) {
	res, err := v.Solver.Solve(ctx, p)
	if res != nil {
		if res.Report.Canceled {
			v.truncated++
		}
		if verr := res.Schedule.Validate(); verr != nil {
			v.t.Errorf("patch after %d commits (canceled=%v) invalid: %v", res.Report.Iterations, res.Report.Canceled, verr)
		}
	}
	return res, err
}

func scheduleBytes(t *testing.T, s *core.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := schedio.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stopRuleTrace is one input of the property test: a graph, the schedule
// the daemon starts from (solved with the given worker count) and a trace.
type stopRuleTrace struct {
	name  string
	g     *graph.Graph
	base  *workload.Rates
	init  func(workers int) *core.Schedule
	trace []workload.ChurnOp
	cfg   Config
}

func stopRuleTraces(t *testing.T) []stopRuleTrace {
	t.Helper()
	var out []stopRuleTrace
	g := graphgen.Social(graphgen.FlickrLike(scaled(200, 100), 11))
	base := workload.LogDegree(g, 5)
	for _, name := range scenario.Default.Names() {
		trace, err := scenario.Default.Generate(name, g, base, scenario.Params{Ops: scaled(400, 200), Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, stopRuleTrace{name, g, base,
			func(int) *core.Schedule { return chitchat.Solve(g, base, chitchat.Config{}) },
			trace, Config{DriftThreshold: 0.05, CheckEvery: 8, BudgetFraction: -1}})
	}
	// churn_local's shape: a streamed graph several regions wide, a NOSY
	// schedule to start from, plain churn.
	sg := graphgen.StreamSocial(graphgen.FlickrLikeEdges(scaled(20_000, 8_000), 7))
	sbase := workload.LogDegree(sg, 5)
	out = append(out, stopRuleTrace{"churn", sg, sbase,
		func(workers int) *core.Schedule {
			return nosy.Solve(sg, sbase, nosy.Config{Workers: workers}).Schedule
		},
		workload.GenerateChurn(sg, sbase, scaled(400, 200), workload.ChurnConfig{Seed: 7}),
		Config{DriftThreshold: 0.05, CheckEvery: 8, BudgetFraction: -1, MaxRegionNodes: 256}})
	return out
}

// The rule under the daemon, over the six zoo traces and one
// churn_local-shaped trace: it fires, what it cuts is a valid patch, the
// maintained schedule is valid after every op, and two runs — at one
// worker count or two — end on the same schedule bytes, the same Stats,
// the same decision records and the same span tree.
func TestStopRuleDaemonProperty(t *testing.T) {
	for _, tc := range stopRuleTraces(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want := runTrace(t, tc, 1, false)
			if early := strings.Count(want.records, "stopped=early"); early == 0 || early != want.truncated {
				t.Errorf("%d records say stopped=early, the solver returned %d truncated patches:\n%s", early, want.truncated, want.records)
			}
			for _, workers := range []int{1, 2} {
				sameRun(t, fmt.Sprintf("workers=%d", workers), runTrace(t, tc, workers, false), want)
			}
		})
	}
}

// mute hides a solver's progress stream, as any third-party Regional
// without solver.ProgressChainer does.
type mute struct{ solver.Solver }

// What streams no Saved runs as it did before the rule existed: the
// digests are the final schedules of the parent commit (16d7c15) on this
// trace, for CHITCHAT behind a wrapper without a progress stream and for
// NOSY.
func TestStopRuleLeavesOtherSolversAlone(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(200, 11))
	base := workload.LogDegree(g, 5)
	trace, err := scenario.Default.Generate(scenario.FlashCrowd, g, base, scenario.Params{Ops: 300, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no progress stream", Config{Regional: mute{solver.NewChitChat(chitchat.Config{})}},
			"417fbdeaefcd4cf1d1d2f9d0b8ee0eb051449625dcffc829be97d330f1481368"},
		{"nosy", Config{Regional: solver.NewNosy(nosy.Config{Workers: 1})},
			"935dc8ffe555a798ba80522f222dbccc2f76c84ea74594a3289b0fb6ace6612b"},
	} {
		var ev telemetry.EventLog
		cfg := tc.cfg
		cfg.DriftThreshold, cfg.CheckEvery, cfg.BudgetFraction, cfg.Events = 0.05, 8, -1, &ev
		r := freshRates(g, base)
		d, err := New(chitchat.Solve(g, r, chitchat.Config{}), r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyTrace(trace); err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if st.Resolves == 0 || st.Reverted == 0 {
			t.Fatalf("%s: %d accepted, %d reverted: the trace decides nothing", tc.name, st.Resolves, st.Reverted)
		}
		if records := strings.Join(ev.Attrs("resolve"), "\n"); strings.Contains(records, "stopped=early") {
			t.Errorf("%s: the rule cut a solve it cannot see:\n%s", tc.name, records)
		}
		_, liveS := d.Snapshot()
		sum := sha256.Sum256(scheduleBytes(t, liveS))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: final schedule digest %s, parent's %s", tc.name, got, tc.want)
		}
	}
}

// The daemon under the stopping rule on a rate-heavy trace with small
// regions (MaxRegionNodes 200, a check every 4 ops). Until attempts left
// the ingest path this was the one cell where cut patches cleared the gate
// often enough that each accept reset the revert backoff: 14 accepted, 23
// reverted at 29 044.96, many of the accepts follow-ups a check made right
// after an accept, up to four per check. With one attempt per boundary the
// first eight decide as before; the ninth, gated four ops after its start,
// loses by 22.6 of 28 142 where the parent's follow-up, gated with no op
// in between, won by 4.7. The runs part there, and the revert backoff ends
// this one at 3 accepted, 17 reverted, 6.2% dearer (DESIGN.md §7 and §10
// have the cell's history).
func TestStopRuleRateHeavySmallRegions(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned acceptance cell is scale-specific; skipping under -short")
	}
	g := graphgen.Social(graphgen.FlickrLike(300, 5))
	base := workload.LogDegree(g, 5)
	init := chitchat.Solve(g, base, chitchat.Config{})
	trace := workload.GenerateChurn(g, base, 2000, workload.ChurnConfig{
		AddFraction: 0.1, RemoveFraction: 0.1, Seed: 5,
	})
	d, err := New(init, freshRates(g, base), Config{
		MaxRegionNodes: 200,
		DriftThreshold: 0.05,
		CheckEvery:     4,
		BudgetFraction: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyTrace(trace); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("final schedule invalid: %v", err)
	}
	const wantCost, wantAccepted, wantReverted = 30859.81290018744, 3, 17
	st := d.Stats()
	if !floatsClose(d.Cost(), wantCost) || st.Resolves != wantAccepted || st.Reverted != wantReverted {
		t.Errorf("final cost %v on %d accepted / %d reverted; pinned %v on %d / %d",
			d.Cost(), st.Resolves, st.Reverted, wantCost, wantAccepted, wantReverted)
	}
}

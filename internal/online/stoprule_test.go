package online

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/scenario"
	"piggyback/internal/schedio"
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
			if a.stop(chitchat.Progress{Commits: commit, Saved: s}) {
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
		// A solve that has saved nothing: even an incumbent dearer than
		// hybrid (an edge paid both ways) does not satisfy the second half.
		{"nothing saved", 1000, 1100, stopEvery, []float64{0, 0, 0}, nil},
	} {
		a := &attempt{hybrid: tc.hybrid, incumbent: tc.incumbent}
		if got := firesAt(a, tc.every, tc.saved); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fired at %v, want %v", tc.name, got, tc.want)
		}
	}
}

func scheduleBytes(t *testing.T, s *core.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := schedio.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The rule under the daemon, over the zoo cells: it fires, every patch it
// cuts is valid and its solve span ends as a truncated finish, not a
// failure, the maintained schedule is valid after every op, and a
// disturbed run at two solver workers ends on the same schedule bytes,
// Stats, decision records and span tree (zoo_test.go).
func TestStopRuleDaemonProperty(t *testing.T) {
	eachCell(t, false, func(t *testing.T, r *zooResult) {
		run := r.observed
		if early := strings.Count(run.records, "stopped=early"); early == 0 || early != run.truncated {
			t.Errorf("%d records say stopped=early, the solver returned %d truncated patches:\n%s", early, run.truncated, run.records)
		}
		// Every attempt but a dissolved one solves, and its span is the
		// next solve span in the tree.
		ends := solveSpans(run.tree)
		for _, rec := range strings.Split(run.records, "\n") {
			if strings.Contains(rec, "verdict=dissolved") {
				continue
			}
			if len(ends) == 0 {
				t.Fatalf("more solving attempts than solve spans:\n%s", run.tree)
			}
			end := ends[0]
			ends = ends[1:]
			if strings.Contains(rec, "stopped=early") && (!strings.HasSuffix(end, " canceled") || strings.Contains(end, "class=")) {
				t.Errorf("an early-stopped attempt's solve span ends %q, want ok … canceled with no class", end)
			}
		}
		if len(ends) != 0 {
			t.Errorf("%d solve spans no attempt accounts for", len(ends))
		}
		noFindings(t, run, oPatch, oValidate)
		sameEnd(t, r)
	})
}

// A regional solve the rule does not see runs as it did before the rule
// existed: the digest is the final schedule of commit 16d7c15 on this
// trace, for a CHITCHAT without the rule on its OnProgress.
func TestStopRuleLeavesOtherSolversAlone(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(200, 11))
	base := workload.LogDegree(g, 5)
	trace, err := scenario.Default.Generate(scenario.FlashCrowd, g, base, scenario.Params{Ops: 300, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const want = "417fbdeaefcd4cf1d1d2f9d0b8ee0eb051449625dcffc829be97d330f1481368"
	var records []string
	r := freshRates(g, base)
	d, err := New(chitchat.Solve(g, r, chitchat.Config{}), r, Config{
		DriftThreshold: 0.05, CheckEvery: 8, BudgetFraction: -1, Events: collect(&records),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.regional = func(ctx context.Context, g *graph.Graph, r *workload.Rates) (*core.Schedule, error) {
		return chitchat.SolveCtx(ctx, g, r, chitchat.Config{})
	}
	if err := d.ApplyTrace(trace); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Resolves == 0 || st.Reverted == 0 {
		t.Fatalf("%d accepted, %d reverted: the trace decides nothing", st.Resolves, st.Reverted)
	}
	if joined := strings.Join(records, "\n"); strings.Contains(joined, "stopped=early") {
		t.Errorf("the rule cut a solve it cannot see:\n%s", joined)
	}
	_, liveS := d.Snapshot()
	sum := sha256.Sum256(scheduleBytes(t, liveS))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("final schedule digest %s, parent's %s", got, want)
	}
}

// The daemon under the stopping rule on a rate-heavy trace with small
// regions (200 nodes, a check every 4 ops). Until attempts left
// the ingest path this was the one cell where cut patches cleared the gate
// often enough that each accept reset the revert backoff: 14 accepted, 23
// reverted at 29 044.96, many of the accepts follow-ups a check made right
// after an accept, up to four per check. With one attempt per boundary the
// first eight decide as before; the ninth, gated four ops after its start,
// loses by 22.6 of 28 142 where the parent's follow-up, gated with no op
// in between, won by 4.7. The runs part there, and the revert backoff ends
// this one at 3 accepted, 17 reverted, 6.2% dearer (DESIGN.md §7 and §10
// have the cell's history). The exterior-amortization sweep's purchases
// went with it: 30 859.81 with them, 30 854.99 without.
func TestStopRuleRateHeavySmallRegions(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned acceptance cell is scale-specific; skipping under -short")
	}
	g := graphgen.Social(graphgen.FlickrLike(300, 5))
	base := workload.LogDegree(g, 5)
	init := chitchat.Solve(g, base, chitchat.Config{})
	trace := scenario.GenerateChurn(g, base, 2000, scenario.ChurnConfig{
		AddFraction: 0.1, RemoveFraction: 0.1, Seed: 5,
	})
	d, err := New(init, freshRates(g, base), Config{
		DriftThreshold: 0.05,
		CheckEvery:     4,
		BudgetFraction: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.maxRegion = 200
	if err := d.ApplyTrace(trace); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("final schedule invalid: %v", err)
	}
	const wantCost, wantAccepted, wantReverted = 30854.985342170614, 3, 17
	st := d.Stats()
	if !floatsClose(d.Cost(), wantCost) || st.Resolves != wantAccepted || st.Reverted != wantReverted {
		t.Errorf("final cost %v on %d accepted / %d reverted; pinned %v on %d / %d",
			d.Cost(), st.Resolves, st.Reverted, wantCost, wantAccepted, wantReverted)
	}
}

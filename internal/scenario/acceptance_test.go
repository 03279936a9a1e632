// The zoo acceptance suite: every registered scenario is driven through
// the online daemon with pinned accept/revert/amortize counts, a pinned
// final cost and a byte-identical final schedule from a second, identical
// run — the tier-1 contract that makes the zoo the judging layer for
// future scheduling changes. A change that shifts any pin is a behavior
// change and must update it deliberately.

package scenario_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"piggyback/internal/chitchat"
	"piggyback/internal/fault"
	"piggyback/internal/graphgen"
	"piggyback/internal/online"
	"piggyback/internal/scenario"
	"piggyback/internal/schedio"
	"piggyback/internal/solver"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// Fixed acceptance geometry — deliberately NOT scaled down under
// -short, because the pins below are exact counts: -short instead runs
// only the flashcrowd subtest (the CI smoke), full mode runs the whole
// zoo.
const (
	accNodes = 300
	accGSeed = 11
	accOps   = 800
	accSeed  = 42
)

type accPin struct {
	Resolves, Reverted, Amortized int
	Cost                          float64 // final d.Cost(), rounded to 0.001
}

// acceptancePins: exact daemon behavior per scenario at the geometry
// above (CHITCHAT regional solver, DriftThreshold 0.05, CheckEvery 8,
// unlimited budget). Re-pinned when attempts left the ingest path: each
// patch is gated eight ops after its start, against the incumbent as it
// stands then (parent: diurnal {29,13,130}, ldbc {17,9,109}; the other
// four did not move). Every final cost is the parent's to the cent:
// the region is the whole graph here, and the last accepted patch, with
// the trace's tail replayed onto it, is the same schedule either way —
// DESIGN.md §13 has the table.
var acceptancePins = map[string]accPin{
	scenario.Cascade:      {Resolves: 9, Reverted: 5, Amortized: 0, Cost: 20084.812},
	scenario.Diurnal:      {Resolves: 25, Reverted: 15, Amortized: 124, Cost: 17006.703},
	scenario.FlashCrowd:   {Resolves: 29, Reverted: 17, Amortized: 0, Cost: 19600.422},
	scenario.LDBC:         {Resolves: 12, Reverted: 8, Amortized: 117, Cost: 21338.809},
	scenario.Preferential: {Resolves: 11, Reverted: 0, Amortized: 26, Cost: 18876.986},
	scenario.RegionChurn:  {Resolves: 3, Reverted: 2, Amortized: 0, Cost: 18563.532},
}

func TestAcceptanceZooDaemon(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(accNodes, accGSeed))
	base := workload.LogDegree(g, 5)
	for _, name := range scenario.Default.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name != scenario.FlashCrowd {
				t.Skip("-short runs the flashcrowd smoke only")
			}
			trace, err := scenario.Default.Generate(name, g, base,
				scenario.Params{Ops: accOps, Seed: accSeed})
			if err != nil {
				t.Fatal(err)
			}
			run := func() (online.Stats, []byte, float64) {
				r := &workload.Rates{
					Prod: append([]float64(nil), base.Prod...),
					Cons: append([]float64(nil), base.Cons...),
				}
				d, err := online.New(chitchat.Solve(g, r, chitchat.Config{}), r,
					online.Config{
						DriftThreshold: 0.05,
						CheckEvery:     8,
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
				_, liveS := d.Snapshot()
				var buf bytes.Buffer
				if err := schedio.Write(&buf, liveS); err != nil {
					t.Fatal(err)
				}
				return d.Stats(), buf.Bytes(), d.Cost()
			}

			st1, bytes1, cost1 := run()
			pin := acceptancePins[name]
			got := accPin{Resolves: st1.Resolves, Reverted: st1.Reverted, Amortized: st1.Amortized,
				Cost: math.Round(cost1*1000) / 1000}
			if got != pin {
				t.Errorf("accept/revert behavior or final cost moved: got %+v, pinned %+v", got, pin)
			}
			// The daemon must have actually been exercised: every
			// adversarial trace triggers at least one re-solve attempt.
			if st1.Resolves+st1.Reverted == 0 {
				t.Error("trace triggered no localized re-solves at all")
			}
			if st1.SolverErrors != 0 {
				t.Errorf("hard solver failures during the trace: %d (last: %v)",
					st1.SolverErrors, st1.LastSolverErr)
			}

			// Run-to-run determinism: a repeat of the same run (CHITCHAT is
			// serial, so there is no worker count to vary) ends on a
			// byte-identical schedule, identical stats and cost.
			stRep, bytesRep, costRep := run()
			if !bytes.Equal(bytes1, bytesRep) {
				t.Error("final schedule bytes differ between two identical runs")
			}
			if cost1 != costRep {
				t.Errorf("final cost differs between two identical runs: %v vs %v", cost1, costRep)
			}
			st1.ResolveWall, stRep.ResolveWall = 0, 0 // the only timing field
			if !reflect.DeepEqual(st1, stRep) {
				t.Errorf("stats differ between two identical runs:\nfirst:  %+v\nrepeat: %+v", st1, stRep)
			}
		})
	}
}

// TestAcceptanceZooBreaker drives the flashcrowd scenario against a
// daemon whose primary regional solver panics on its early solves: the
// breaker must quarantine it, serve from the fallback, recover through
// a half-open probe, and emit exactly the pinned transition sequence —
// the accept/revert/breaker triad of the tentpole, end to end on a zoo
// trace.
func TestAcceptanceZooBreaker(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(accNodes, accGSeed))
	base := workload.LogDegree(g, 5)
	trace, err := scenario.Default.Generate(scenario.FlashCrowd, g, base,
		scenario.Params{Ops: accOps, Seed: accSeed})
	if err != nil {
		t.Fatal(err)
	}
	r := &workload.Rates{
		Prod: append([]float64(nil), base.Prod...),
		Cons: append([]float64(nil), base.Cons...),
	}
	var ev telemetry.EventLog
	primary := solver.Chain(solver.NewChitChat(chitchat.Config{}), fault.SolverPanics(1, 4))
	d, err := online.New(chitchat.Solve(g, r, chitchat.Config{}), r, online.Config{
		Regional:          primary,
		Fallback:          solver.NewChitChat(chitchat.Config{}),
		BreakerThreshold:  2,
		BreakerProbeEvery: 2,
		DriftThreshold:    0.05,
		CheckEvery:        8,
		BudgetFraction:    -1,
		Events:            &ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyTrace(trace); err != nil {
		t.Fatalf("trace failed: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("final schedule invalid: %v", err)
	}
	st := d.Stats()
	if st.Breaker == nil || st.Breaker.Trips == 0 || st.Breaker.FallbackSolves == 0 {
		t.Fatalf("breaker never engaged: %+v", st.Breaker)
	}
	if st.Breaker.Open {
		t.Fatalf("breaker still open after the primary healed: %+v", st.Breaker)
	}
	// The primary panics on solves 1..3 with trip threshold 2: two
	// panics trip the breaker, the first half-open probe eats panic 3
	// and re-opens, the second probe finds the primary healed.
	want := []string{
		"closed->open",
		"open->half-open", "half-open->open",
		"open->half-open", "half-open->closed",
	}
	if got := ev.Attrs("breaker"); !reflect.DeepEqual(got, want) {
		t.Fatalf("breaker transitions = %v, want %v", got, want)
	}
	if st.Resolves == 0 {
		t.Fatalf("no accepted re-solves on the flashcrowd trace: %+v", st)
	}
}

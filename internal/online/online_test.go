package online

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/graphgen"
	"piggyback/internal/schedio"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

func scaled(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// rates must be private per daemon run: rate-update ops mutate them.
func freshRates(g interface{ NumNodes() int }, base *workload.Rates) *workload.Rates {
	return &workload.Rates{
		Prod: append([]float64(nil), base.Prod...),
		Cons: append([]float64(nil), base.Cons...),
	}
}

// The daemon stays valid and keeps its running cost exact across a full
// churn trace.
func TestDaemonChurnValidAndCostExact(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(500, 200), 3))
	base := workload.LogDegree(g, 5)
	init := chitchat.Solve(g, base, chitchat.Config{Workers: 1})
	trace := workload.GenerateChurn(g, base, scaled(2000, 600), workload.ChurnConfig{Seed: 3})

	t.Run("chitchat", func(t *testing.T) {
		r := freshRates(g, base)
		d, err := New(init.Clone(), r, Config{
			MaxRegionNodes: 120,
			DriftThreshold: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyTrace(trace); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("final state invalid: %v", err)
		}
		_, liveS := d.Snapshot()
		fresh := liveS.Cost(r)
		if diff := math.Abs(fresh - d.Cost()); diff > 1e-6*(1+fresh) {
			t.Fatalf("running cost %v != snapshot cost %v", d.Cost(), fresh)
		}
		st := d.Stats()
		if st.Ops != len(trace) {
			t.Fatalf("ops = %d, want %d", st.Ops, len(trace))
		}
	})
}

// When the incumbent schedule is badly degraded (hybrid seed — no hubs
// at all), the drift tracker must fire localized re-solves that win a
// large share of the quality back.
func TestDaemonRecoversFromDegradedSchedule(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(600, 250), 9))
	base := workload.LogDegree(g, 5)
	r := freshRates(g, base)
	seed := baseline.Hybrid(g, r)
	trace := workload.GenerateChurn(g, base, scaled(2000, 700), workload.ChurnConfig{Seed: 9})

	d, err := New(seed, r, Config{
		DriftThreshold: 0.05,
		MaxRegionNodes: 150,
		BudgetFraction: -1, // the point here is recovery, not the budget
		ChitChat:       chitchat.Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := d.Cost()
	if err := d.ApplyTrace(trace); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Resolves == 0 {
		t.Fatal("no accepted localized re-solves on a hybrid-seeded daemon")
	}
	if d.Cost() > 0.75*start {
		t.Fatalf("recovered too little: %v → %v (%.1f%%)",
			start, d.Cost(), 100*d.Cost()/start)
	}
}

func TestDaemonRejectsInvalidOps(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(100, 2))
	base := workload.LogDegree(g, 5)
	r := freshRates(g, base)
	d, err := New(chitchat.Solve(g, r, chitchat.Config{Workers: 1}), r, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := g.EdgeList()[0]
	if err := d.Apply(workload.ChurnOp{Kind: workload.OpAdd, U: e.From, V: e.To}); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if err := d.Apply(workload.ChurnOp{Kind: workload.OpRemove, U: 1000000, V: 0}); err == nil {
		t.Fatal("out-of-range remove accepted")
	}
	if err := d.Apply(workload.ChurnOp{Kind: workload.OpRates, U: 0, Prod: math.NaN(), Cons: 1}); err == nil {
		t.Fatal("NaN rate accepted")
	}
	if err := d.Apply(workload.ChurnOp{Kind: 99}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
}

// The pinned acceptance scenario: 2k-node Flickr-like graph,
// 5k-op churn trace, deterministic seed. The daemon must end within 10%
// of a from-scratch CHITCHAT re-solve of the final graph while issuing
// localized re-solves over regions totaling <25% of the live edges, and
// a second, identical run must end on the same schedule bytes. (Worker
// invariance of the daemon's CHITCHAT is the zoo's disturbed run's, at
// two workers: zoo_test.go.)
func TestAcceptanceOnlineDaemon2k(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance scenario runs full size; -short exercises the scaled tests above")
	}
	const (
		nodes = 2000
		ops   = 5000
		seed  = 42
	)
	g := graphgen.Social(graphgen.FlickrLike(nodes, seed))
	base := workload.LogDegree(g, 5)
	init := chitchat.Solve(g, base, chitchat.Config{Workers: 1})
	trace := workload.GenerateChurn(g, base, ops, workload.ChurnConfig{Seed: seed})

	run := func() (*Daemon, []byte) {
		r := freshRates(g, base)
		d, err := New(init.Clone(), r, Config{MaxRegionNodes: 150})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyTrace(trace); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		_, liveS := d.Snapshot()
		var buf bytes.Buffer
		if err := schedio.Write(&buf, liveS); err != nil {
			t.Fatal(err)
		}
		return d, buf.Bytes()
	}

	d1, bytes1 := run()
	liveG, _ := d1.Snapshot()

	// Quality: within 10% of a from-scratch CHITCHAT re-solve of the
	// final graph under the final rates.
	freshCost := chitchat.Solve(liveG, d1.Rates(), chitchat.Config{Workers: 1}).Cost(d1.Rates())
	if gap := d1.Cost()/freshCost - 1; gap > 0.10 {
		t.Fatalf("daemon %.1f vs fresh %.1f: gap %.2f%% exceeds 10%%",
			d1.Cost(), freshCost, 100*gap)
	}

	// Locality: cumulative re-solved region size below a quarter of the
	// live edges, with the localized machinery demonstrably engaged.
	st := d1.Stats()
	if st.Resolves+st.Reverted == 0 {
		t.Fatal("no localized re-solves were ever issued")
	}
	if frac := float64(st.RegionEdges) / float64(liveG.NumEdges()); frac >= 0.25 {
		t.Fatalf("re-solved regions total %.1f%% of live edges, want <25%%", 100*frac)
	}

	// Run-to-run determinism: a repeat ends on the same bytes and cost.
	dRep, bytesRep := run()
	if !bytes.Equal(bytes1, bytesRep) {
		t.Fatal("schedule bytes differ between two identical runs")
	}
	if d1.Cost() != dRep.Cost() {
		t.Fatalf("cost differs between two identical runs: %v vs %v", d1.Cost(), dRep.Cost())
	}
}

// TestRejectsRegionIncapableSolver pins the construction-time guard: a
// regional solver that cannot handle Problem.Region — a baseline, or NOSY,
// which is a batch solver only — is a configuration error, not a stream
// of silent re-solve failures.
func TestRejectsRegionIncapableSolver(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(100, 1))
	r := workload.LogDegree(g, 5)
	s := chitchat.Solve(g, r, chitchat.Config{})
	for _, name := range []string{solver.PushAll, solver.Nosy} {
		sv, err := solver.New(name, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(s, r, Config{Regional: sv}); !errors.Is(err, solver.ErrRegionUnsupported) {
			t.Errorf("New with %s regional = %v, want ErrRegionUnsupported", name, err)
		}
	}
}

package online

import (
	"bytes"
	"math"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/graphgen"
	"piggyback/internal/scenario"
	"piggyback/internal/schedio"
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

// collect returns a Config.Events that appends each decision record to
// *records.
func collect(records *[]string) func(string) {
	return func(record string) { *records = append(*records, record) }
}

// The daemon stays valid and keeps its running cost exact across a full
// churn trace.
func TestDaemonChurnValidAndCostExact(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(scaled(500, 200), 3))
	base := workload.LogDegree(g, 5)
	init := chitchat.Solve(g, base, chitchat.Config{Workers: 1})
	trace := scenario.GenerateChurn(g, base, scaled(2000, 600), scenario.ChurnConfig{Seed: 3})

	t.Run("chitchat", func(t *testing.T) {
		r := freshRates(g, base)
		d, err := New(init.Clone(), r, Config{DriftThreshold: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		d.maxRegion = 120
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
	trace := scenario.GenerateChurn(g, base, scaled(2000, 700), scenario.ChurnConfig{Seed: 9})

	d, err := New(seed, r, Config{
		DriftThreshold: 0.05,
		BudgetFraction: -1, // the point here is recovery, not the budget
		ChitChat:       chitchat.Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.maxRegion = 150
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

// New refuses initial rates the drift check cannot price: a Prod or Cons
// shorter than the graph, or a negative, NaN or infinite entry. Rate ops
// are held to the same rule as they come.
func TestNewRejectsUnpriceableRates(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(50, 2))
	base := workload.LogDegree(g, 5)
	s := baseline.Hybrid(g, base)
	if _, err := New(s, freshRates(g, base), Config{}); err != nil {
		t.Fatalf("valid rates rejected: %v", err)
	}
	for name, spoil := range map[string]func(r *workload.Rates){
		"short Prod":    func(r *workload.Rates) { r.Prod = r.Prod[:len(r.Prod)-1] },
		"short Cons":    func(r *workload.Rates) { r.Cons = r.Cons[:len(r.Cons)-1] },
		"negative Prod": func(r *workload.Rates) { r.Prod[7] = -1 },
		"negative Cons": func(r *workload.Rates) { r.Cons[7] = -0.5 },
		"NaN Prod":      func(r *workload.Rates) { r.Prod[3] = math.NaN() },
		"NaN Cons":      func(r *workload.Rates) { r.Cons[49] = math.NaN() },
		"+Inf Prod":     func(r *workload.Rates) { r.Prod[0] = math.Inf(1) },
		"-Inf Cons":     func(r *workload.Rates) { r.Cons[0] = math.Inf(-1) },
	} {
		r := freshRates(g, base)
		spoil(r)
		if _, err := New(s, r, Config{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
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
	trace := scenario.GenerateChurn(g, base, ops, scenario.ChurnConfig{Seed: seed})

	run := func() (*Daemon, []byte) {
		r := freshRates(g, base)
		d, err := New(init.Clone(), r, Config{})
		if err != nil {
			t.Fatal(err)
		}
		d.maxRegion = 150
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

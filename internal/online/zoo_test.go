// The zoo replay: every oracle of the re-solve path rides one of two runs
// of each cell, and each cell is replayed once per test binary.
//
//   - The observed run: CHITCHAT at one worker, every spliced patch handed
//     to the daemon's observe hook before refine: validated (the cut ones
//     counted) and its refine pass held against referencePass, on a clone.
//     The maintained schedule is validated after every op; every accepted
//     splice is held against a daemon that never re-solves. The run must
//     hit the acceptance pins, which proves the observers moved no
//     decision.
//   - The disturbed run: CHITCHAT at two workers, each solve held up by a
//     wall-clock-random 0–50 ms and each op followed by a random 0–1 ms
//     pause, every check boundary held against referenceCheck (lockstep,
//     which also counts the members the checks priced). It must end where
//     the observed run ends: schedule bytes, Stats, decision records,
//     span tree, non-timing metric snapshot and cost bits. That one
//     comparison is run-to-run determinism, worker invariance, an op-count
//     splice point, and the checked boundary's equality with Apply's.
//
// Observers record findings instead of failing (the observe hook runs on
// the attempt's goroutine); each test asserts its own oracle's. -short replays
// five of the six scenarios on a smaller graph (zooCells).

package online

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/scenario"
	"piggyback/internal/schedio"
	"piggyback/internal/telemetry"
	"piggyback/internal/workload"
)

// The oracles, as findings are filed under them.
const (
	oPatch    = "patch"    // every spliced patch is valid
	oRefine   = "refine"   // refine.Pass equals referencePass on every spliced patch
	oValidate = "validate" // the maintained schedule is valid after every op
	oSplice   = "splice"   // an accepted splice lands on the never-re-solving daemon's graph, its cost exact
	oLockstep = "lockstep" // every check equals referenceCheck
	oRun      = "run"      // the run itself failed
)

// zooDaemon is the daemon of every zoo cell: CHITCHAT regions, a check
// every 8 ops, no re-solve budget.
var zooDaemon = Config{DriftThreshold: 0.05, CheckEvery: 8, BudgetFraction: -1, ChitChat: chitchat.Config{Workers: 1}}

// A zooCell is one replay input: a graph, the schedule the daemon starts
// from, a trace and a configuration.
type zooCell struct {
	name      string
	g         *graph.Graph
	base      *workload.Rates
	init      *core.Schedule
	trace     []workload.ChurnOp
	cfg       Config
	maxRegion int  // the daemon's region cap
	pinned    bool // at the acceptance geometry: acceptancePins holds its observed run
}

// The acceptance geometry: FlickrLike(accNodes, 11), accOps ops at seed 42.
const accNodes, accOps = 300, 800

// zooCells are the six zoo scenarios and one churn_local-shaped cell: a
// NOSY schedule to start from, regions of 100 nodes on a 600-node graph,
// plain churn with rate ops. That cell takes every path the remembered
// region and the stopping rule have: rate ops, extraction, reuse, accept,
// revert, early. Under -short only flashcrowd keeps the acceptance
// geometry; the other five scenarios run on FlickrLike(150, 11) with 320
// ops, where every one of them still fires the rule, splices and accepts.
func zooCells(short bool) []zooCell {
	if !short {
		return append(scenarioCells(accNodes, accOps, scenario.Default.Names()...), churnCell())
	}
	var rest []string
	for _, name := range scenario.Default.Names() {
		if name != scenario.FlashCrowd {
			rest = append(rest, name)
		}
	}
	cells := append(scenarioCells(accNodes, accOps, scenario.FlashCrowd), scenarioCells(150, 320, rest...)...)
	return append(cells, churnCell())
}

func scenarioCells(nodes, ops int, names ...string) []zooCell {
	g := graphgen.Social(graphgen.FlickrLike(nodes, 11))
	base := workload.LogDegree(g, 5)
	init := chitchat.Solve(g, base, chitchat.Config{Workers: 1})
	var cells []zooCell
	for _, name := range names {
		trace, err := scenario.Default.Generate(name, g, base, scenario.Params{Ops: ops, Seed: 42})
		if err != nil {
			panic(err)
		}
		cells = append(cells, zooCell{name, g, base, init, trace, zooDaemon, maxRegionNodes, nodes == accNodes && ops == accOps})
	}
	return cells
}

func churnCell() zooCell {
	g := graphgen.Social(graphgen.FlickrLike(600, 5))
	base := workload.LogDegree(g, 5)
	return zooCell{"churn", g, base, nosy.Solve(g, base, nosy.Config{Workers: 1}),
		scenario.GenerateChurn(g, base, 800, scenario.ChurnConfig{Seed: 5}), zooDaemon, 100, false}
}

// findings collects what one run's observers saw go wrong, by oracle,
// from the Apply goroutine and the attempt's alike.
type findings struct {
	mu sync.Mutex
	by map[string][]string
}

func (f *findings) add(oracle, format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.by[oracle] = append(f.by[oracle], fmt.Sprintf(format, args...))
}

// patchOracles holds every schedule the daemon splices a patch into to
// the patch and refine oracles, on a clone, through Daemon.observe.
type patchOracles struct {
	f *findings
	// Written on the attempt goroutine, read after the flush.
	truncated, recovered int
}

func (o *patchOracles) observe(s *core.Schedule, sup core.Supports, r *workload.Rates, commits int, canceled bool) {
	if canceled {
		o.truncated++
	}
	if err := s.Validate(); err != nil {
		o.f.add(oPatch, "patch after %d commits (canceled=%v) invalid: %v", commits, canceled, err)
		return
	}
	recovered, err := checkPassAgainstReference(s, sup, r)
	if err != nil {
		o.f.add(oRefine, "patch after %d commits (canceled=%v): %v", commits, canceled, err)
	}
	o.recovered += recovered
}

// zooRun is one replay of a cell: what must repeat across runs, and what
// its observers counted and found.
type zooRun struct {
	schedule []byte
	stats    Stats // ResolveWall zeroed: the only timing field
	cost     float64
	records  string
	tree     string
	metrics  telemetry.Snapshot // the run's registry, after the flush
	// The observed run's: cut patches the solver returned, edges the refine
	// oracle saw recovered, splices held against the reference.
	truncated, recovered, spliced int
	pricing                       pricing // the disturbed run's drift checks
	findings                      map[string][]string
}

// replayCell runs c observed or disturbed (see the top of the file).
func replayCell(c zooCell, disturbed bool) (run zooRun) {
	f := &findings{by: map[string][]string{}}
	defer func() { run.findings = f.by }()
	var records []string
	tr := telemetry.NewTracer(7)
	reg := telemetry.NewRegistry()
	cfg := c.cfg
	cfg.Events, cfg.Tracer, cfg.Metrics = collect(&records), tr, reg
	now := time.Now().UnixNano()
	jitter := rand.New(rand.NewSource(now + 1))
	if disturbed {
		cfg.ChitChat.Workers = 2
		cfg.CheckEvery = math.MaxInt // the loop below makes every boundary, checked
	}
	d, err := New(c.init.Clone(), freshRates(c.g, c.base), cfg)
	if err != nil {
		f.add(oRun, "%v", err)
		return run
	}
	d.maxRegion = c.maxRegion
	ob := &patchOracles{f: f}
	if disturbed {
		d.regional = sleepy(d.regional, rand.New(rand.NewSource(now)))
	} else {
		d.observe = ob.observe
	}
	// ref never re-solves: after every accepted splice the live graph must
	// be its graph, edge for edge.
	ref, err := New(c.init.Clone(), freshRates(c.g, c.base), Config{DriftThreshold: -1})
	if err != nil {
		f.add(oRun, "%v", err)
		return run
	}
	ls, at := newLockstep(d), 0
	d.OnSplice = func(liveG *graph.Graph, s *core.Schedule) {
		run.spliced++
		if refG, _ := ref.Snapshot(); !sameGraph(liveG, refG) {
			f.add(oSplice, "op %d: the spliced graph is not the live graph", at)
		}
		if fresh := s.Cost(d.Rates()); math.Abs(d.Cost()-fresh) > 1e-9*fresh {
			f.add(oSplice, "op %d: running cost %v, fresh %v", at, d.Cost(), fresh)
		}
	}
	for i, op := range c.trace {
		at = i
		if err := ref.Apply(op); err != nil {
			f.add(oRun, "reference, op %d: %v", i, err)
			return run
		}
		if err := ls.apply(op); err != nil {
			f.add(oRun, "op %d: %v", i, err)
			return run
		}
		if !disturbed {
			if err := d.Validate(); err != nil {
				f.add(oValidate, "after op %d (attempt in flight: %v): %v", i, d.fl.done != nil, err)
			}
			continue
		}
		if (i+1)%c.cfg.CheckEvery == 0 {
			if err := ls.boundary(i); err != nil {
				f.add(oLockstep, "%v", err)
			}
		}
		time.Sleep(time.Duration(jitter.Intn(1000)) * time.Microsecond)
	}
	d.Flush(context.Background())
	if err := d.Validate(); err != nil {
		f.add(oValidate, "after the flush: %v", err)
	}
	_, s := d.Snapshot()
	var buf bytes.Buffer
	if err := schedio.Write(&buf, s); err != nil {
		f.add(oRun, "%v", err)
	}
	run.schedule, run.stats, run.cost = buf.Bytes(), d.Stats(), d.Cost()
	run.stats.ResolveWall = 0
	run.records, run.tree, run.metrics = strings.Join(records, "\n"), tr.Tree(), reg.Snapshot()
	run.truncated, run.recovered = ob.truncated, ob.recovered
	run.pricing = ls.pricing
	return run
}

type zooResult struct {
	cell                zooCell
	observed, disturbed zooRun
}

var zoo struct {
	once    sync.Once
	results []*zooResult
}

// zooReplays replays every cell, observed and disturbed, all at once, the
// first time a test asks, and hands every later caller the same results.
func zooReplays() []*zooResult {
	zoo.once.Do(func() {
		var wg sync.WaitGroup
		for _, c := range zooCells(testing.Short()) {
			c, r := c, &zooResult{cell: c}
			zoo.results = append(zoo.results, r)
			wg.Add(2)
			go func() { defer wg.Done(); r.observed = replayCell(c, false) }()
			go func() { defer wg.Done(); r.disturbed = replayCell(c, true) }()
		}
		wg.Wait()
	})
	return zoo.results
}

// eachCell runs check on every replayed cell, or on the pinned ones only.
func eachCell(t *testing.T, pinnedOnly bool, check func(t *testing.T, r *zooResult)) {
	for _, r := range zooReplays() {
		r := r
		if r.cell.pinned || !pinnedOnly {
			t.Run(r.cell.name, func(t *testing.T) { check(t, r) })
		}
	}
}

// noFindings fails t with what the named oracles found in run, and with
// any failure of the run itself.
func noFindings(t *testing.T, run zooRun, oracles ...string) {
	t.Helper()
	for _, o := range append(oracles, oRun) {
		if fs := run.findings[o]; len(fs) > 0 {
			t.Errorf("%s oracle: %d findings, the first: %s", o, len(fs), fs[0])
		}
	}
}

// sameEnd fails t where the disturbed run ended apart from the observed.
func sameEnd(t *testing.T, r *zooResult) {
	t.Helper()
	got, want := r.disturbed, r.observed
	switch {
	case !bytes.Equal(got.schedule, want.schedule):
		t.Error("disturbed run: schedule bytes differ")
	case !reflect.DeepEqual(got.stats, want.stats):
		t.Errorf("disturbed run: stats differ:\n%+v\n%+v", got.stats, want.stats)
	case got.records != want.records:
		t.Errorf("disturbed run: decision records differ:\n%s\n---\n%s", got.records, want.records)
	case got.tree != want.tree:
		t.Errorf("disturbed run: span trees differ:\n%s\n---\n%s", got.tree, want.tree)
	case got.metrics.NonTiming().PromText() != want.metrics.NonTiming().PromText():
		t.Errorf("disturbed run: non-timing snapshots differ:\n%s\n---\n%s", got.metrics.NonTiming().PromText(), want.metrics.NonTiming().PromText())
	case math.Float64bits(got.cost) != math.Float64bits(want.cost):
		t.Errorf("disturbed run: cost %v, observed %v", got.cost, want.cost)
	}
}

type accPin struct {
	Resolves, Reverted int
	Cost               float64 // final d.Cost(), rounded to 0.001
}

// acceptancePins: exact daemon behavior per scenario at the zoo geometry.
// Re-pinned when the exterior-amortization sweep left the attempt's tail
// (parent: diurnal {25,15} at 17 006.703, flashcrowd {29,17}, ldbc
// 21 338.809, preferential 18 876.986; cascade and regionchurn, where the
// sweep never bought, did not move) — DESIGN.md §13 has the table.
var acceptancePins = map[string]accPin{
	scenario.Cascade:      {Resolves: 9, Reverted: 5, Cost: 20084.812},
	scenario.Diurnal:      {Resolves: 26, Reverted: 14, Cost: 17009.78},
	scenario.FlashCrowd:   {Resolves: 31, Reverted: 16, Cost: 19600.422},
	scenario.LDBC:         {Resolves: 12, Reverted: 8, Cost: 21339.505},
	scenario.Preferential: {Resolves: 11, Reverted: 0, Cost: 18910.77},
	scenario.RegionChurn:  {Resolves: 3, Reverted: 2, Cost: 18563.532},
}

// The zoo acceptance suite: every scenario through the daemon with pinned
// accept/revert counts and final cost, hit by the observed run, and the
// disturbed run ending on the same bytes, Stats and cost. A change that
// shifts a pin is a behavior change and updates it deliberately.
func TestAcceptanceZooDaemon(t *testing.T) {
	eachCell(t, true, func(t *testing.T, r *zooResult) {
		st := r.observed.stats
		got := accPin{st.Resolves, st.Reverted, math.Round(r.observed.cost*1000) / 1000}
		if pin := acceptancePins[r.cell.name]; got != pin {
			t.Errorf("accept/revert behavior or final cost moved: got %+v, pinned %+v", got, pin)
		}
		if st.Amortized != 0 {
			t.Errorf("Stats.Amortized = %d, want 0", st.Amortized)
		}
		if st.SolverErrors != 0 {
			t.Errorf("hard solver failures during the trace: %d (last: %v)", st.SolverErrors, st.LastSolverErr)
		}
		noFindings(t, r.observed, oValidate)
		sameEnd(t, r)
	})
}

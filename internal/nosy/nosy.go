// Package nosy implements the PARALLELNOSY heuristic (§3.2): a parallel,
// iterative schedule optimizer that scales to large social graphs.
//
// Each iteration runs three phases over a frozen snapshot of the schedule:
//
//  1. Candidate selection — for every edge w → y not yet covered, build
//     the single-consumer hub-graph G(X, w, y) with X the common
//     predecessors of w and y whose cross-edges x → y are still
//     unscheduled, and keep it if its saved cost exceeds its positive
//     cost against the hybrid baseline.
//  2. Edge locking — every edge grants itself to the candidate hub-graph
//     with the highest gain (ties broken by lowest hub-edge id, making
//     the outcome independent of goroutine interleaving).
//  3. Scheduling decision — a candidate holding all its locks commits in
//     full; one holding a subset re-evaluates the sub-hub-graph X' of
//     fully locked producers and commits it if still profitable. We also
//     require the pull edge w → y itself to be locked for any commit: the
//     commit writes that edge, so writing it without the lock would race
//     with the winning candidate (the paper's line 17 leaves this
//     implicit).
//
// Decisions are computed against the snapshot and applied afterwards, so
// every schedule write in an iteration touches an edge locked by exactly
// one candidate — the MapReduce structure of the paper, on goroutines.
//
// A round costs what the previous round's commits can change, not the
// graph: the immutable structural half of every evaluation is computed
// once per hub edge and kept (structCache); phase 1 re-prices only the
// dirty set, and a commit dirties exactly the hub edges whose evaluation
// reads a flag it wrote (Evaluator.Commit; DESIGN.md §15); round storage
// is reused, and the lock table resets only the words the round bid on.
// Evaluation fans out across workers when a worker's share outweighs a
// thread wake-up; bidding, deciding and committing run on the solve
// goroutine. The schedule produced is identical to the naive three-phase
// sweep for every worker count.
package nosy

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"piggyback/internal/baseline"
	"piggyback/internal/bitset"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

// Config tunes PARALLELNOSY. The zero value uses the defaults.
type Config struct {
	// Workers is the parallelism degree; 0 means GOMAXPROCS.
	Workers int
	// MaxIterations bounds the outer loop; 0 means run to convergence
	// (no candidate commits).
	MaxIterations int
	// MaxCrossEdges bounds |X| per candidate hub-graph, the bound b of
	// §4.2 (100 000 for the Twitter runs). 0 means DefaultMaxCrossEdges.
	MaxCrossEdges int
	// DisablePartialCommits turns off the X'-subset re-evaluation of
	// phase 3 (ablation: convergence needs more iterations).
	DisablePartialCommits bool
	// TraceCosts records the finalized-equivalent schedule cost after
	// every iteration (the Figure 4 harness and live progress streams).
	// The cost is maintained incrementally by the Evaluator, so tracing
	// is O(1) per round, not an O(m) clone.
	TraceCosts bool
	// OnIteration, when non-nil, streams every IterationStat as the
	// round that produced it completes (Cost is filled only under
	// TraceCosts). The callback runs on the solve goroutine between
	// rounds; it must not mutate solver inputs and should return
	// quickly.
	OnIteration func(IterationStat)
}

// DefaultMaxCrossEdges matches §4.2.
const DefaultMaxCrossEdges = 100000

// IterationStat describes one PARALLELNOSY iteration.
type IterationStat struct {
	Iteration int // 0-based round number
	// Dirty is the number of hub edges re-priced this round: those whose
	// evaluation reads a flag the previous round's commits wrote (round
	// 0: every edge, or the region of a restricted solve).
	Dirty          int
	Candidates     int     // hub-graphs passing the phase-1 gain test
	FullCommits    int     // candidates committed with all locks
	PartialCommits int     // candidates committed as sub-hub-graphs
	CoveredEdges   int     // cross-edges newly covered this iteration
	Cost           float64 // finalized schedule cost after the iteration (if TraceCosts)
}

// Result is the solver output.
type Result struct {
	Schedule   *core.Schedule
	Iterations []IterationStat
	// BoundaryRepairs is the number of exterior coverage supports
	// restored after a restricted solve (always 0 for full solves).
	BoundaryRepairs int
}

// Solve runs PARALLELNOSY to convergence and returns the finalized
// schedule (every edge pushed, pulled, or hub-covered).
func Solve(g *graph.Graph, r *workload.Rates, cfg Config) Result {
	res, _ := SolveCtx(context.Background(), g, r, cfg)
	return res
}

// SolveCtx is Solve with cooperative cancellation: the context is checked
// once per iteration (round boundary — rounds are the solver's atomic
// unit, so no per-edge overhead), and on cancellation the rounds
// committed so far are finalized and returned with the context's error.
// PARALLELNOSY's rounds are monotone — each only adds profitable hub
// commits on top of a schedule the finalization completes with the hybrid
// rule — so the result is a valid anytime schedule for every stop point.
func SolveCtx(ctx context.Context, g *graph.Graph, r *workload.Rates, cfg Config) (Result, error) {
	st := newState(NewEvaluator(g, r, cfg), cfg)
	iters, cause := st.run(ctx)
	st.ev.sched.Finalize(r)
	return Result{Schedule: st.ev.sched, Iterations: iters}, cause
}

// run iterates rounds until one commits nothing, MaxIterations is
// reached, or ctx is done (checked at round boundaries only).
func (st *state) run(ctx context.Context) (iters []IterationStat, cause error) {
	cfg := st.cfg
	for it := 0; cfg.MaxIterations == 0 || it < cfg.MaxIterations; it++ {
		if err := ctx.Err(); err != nil {
			return iters, err
		}
		stat := st.iterate()
		stat.Iteration = it
		if cfg.TraceCosts {
			// O(1) running finalized-equivalent cost. In a restricted solve
			// base is valid, so every unscheduled edge is a region edge and
			// this equals the FinalizeEdges(region) snapshot.
			stat.Cost = st.ev.Cost()
		}
		iters = append(iters, stat)
		if cfg.OnIteration != nil {
			cfg.OnIteration(stat)
		}
		if stat.FullCommits+stat.PartialCommits == 0 {
			break
		}
	}
	return iters, nil
}

// SolveRestricted re-optimizes ONLY the given region edges of g, starting
// from base — the localized re-solve entry point of the online
// rescheduling subsystem (§3.3 extended). base must be a valid schedule
// over g; it is cloned, the region edges are cleared, and the usual
// three-phase iteration runs with the dirty set seeded to the region
// instead of every edge, so the work is proportional to the region. A
// candidate hub-graph is admitted only if its pull edge and every kept
// (x→w, x→y) producer pair lie inside the region; edges outside the
// region therefore keep their base assignment, except that RepairCoverage
// may ADD a push/pull flag to restore exterior coverage whose support the
// region re-solve reassigned (the splice-validity argument of DESIGN.md
// §7). The result is valid and byte-identical for every worker count.
func SolveRestricted(g *graph.Graph, r *workload.Rates, cfg Config,
	base *core.Schedule, region []graph.EdgeID) Result {
	res, _ := SolveRestrictedCtx(context.Background(), g, r, cfg, base, region)
	return res
}

// SolveRestrictedCtx is SolveRestricted with the round-boundary
// cancellation contract of SolveCtx: on cancellation the region edges
// not re-covered by the rounds that did run are finalized with the
// hybrid rule and exterior coverage is repaired, so the returned
// schedule is valid for every stop point.
func SolveRestrictedCtx(ctx context.Context, g *graph.Graph, r *workload.Rates, cfg Config,
	base *core.Schedule, region []graph.EdgeID) (Result, error) {

	ev := newRestrictedEvaluator(g, r, cfg, base, region)
	iters, cause := newState(ev, cfg).run(ctx)
	ev.sched.FinalizeEdges(r, region)
	repairs := core.RepairCoverage(ev.sched, r)
	return Result{Schedule: ev.sched, Iterations: iters, BoundaryRepairs: repairs}, cause
}

// newRestrictedEvaluator returns an evaluator over a clone of base with
// the region edges cleared and every write confined to them.
func newRestrictedEvaluator(g *graph.Graph, r *workload.Rates, cfg Config,
	base *core.Schedule, region []graph.EdgeID) *Evaluator {

	ev := NewEvaluator(g, r, cfg)
	ev.sched = base.Clone()
	ev.restrict = bitset.New(g.NumEdges())
	for _, e := range region {
		ev.restrict.Set(int(e))
		ev.sched.ClearEdge(e)
	}
	ev.resetCost()
	return ev
}

// Evaluator holds the candidate-pricing logic. All methods read the
// current schedule snapshot; only Commit and the Apply* mutators write
// it, from one goroutine with no evaluation in flight.
//
// The structural half of an evaluation — the common-producer intersection
// behind a hub edge — depends only on the immutable graph, so it is
// computed once into an arena-backed structCache: the first evaluation of
// a hub edge pays the CommonInEdges merge, every later one is a
// re-pricing pass over the stored flat arrays. Evaluations are safe for
// concurrent use by goroutines evaluating distinct hub edges, as a round
// does (structCache states the round barrier); the mutators are not.
type Evaluator struct {
	g       *graph.Graph
	r       *workload.Rates
	cfg     Config
	sched   *core.Schedule
	cstar   []float64      // hybrid per-edge cost c*(e)
	src     []graph.NodeID // source node per edge (avoids CSR binary search)
	structs *structCache

	// cost is the finalized-equivalent running cost of sched: scheduled
	// edges priced by their push/pull flags, unscheduled edges at their
	// hybrid cost c* (what Finalize will charge them). Maintained O(1)
	// per mutation by the Apply* methods — the incremental.Maintainer
	// discipline — so TraceCosts streams without an O(m) clone per round.
	cost float64

	// restrict, when non-nil, confines the solver to a region: only
	// edges in the set may be written, so a candidate's hub edge and
	// every kept producer pair must lie inside it (SolveRestricted).
	restrict *bitset.Set

	// stamp[v] == epoch marks v as an out-neighbour of a source whose edge
	// into the commit target being swept changed (Commit); bumping epoch
	// unmarks every node at once.
	stamp []uint32
	epoch uint32
}

// NewEvaluator returns an evaluator over an empty schedule for g.
func NewEvaluator(g *graph.Graph, r *workload.Rates, cfg Config) *Evaluator {
	if cfg.MaxCrossEdges == 0 {
		cfg.MaxCrossEdges = DefaultMaxCrossEdges
	}
	ev := &Evaluator{
		g:       g,
		r:       r,
		cfg:     cfg,
		sched:   core.NewSchedule(g),
		cstar:   make([]float64, g.NumEdges()),
		src:     make([]graph.NodeID, g.NumEdges()),
		structs: &structCache{recs: make([]structRec, g.NumEdges())},
		stamp:   make([]uint32, g.NumNodes()),
	}
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		ev.cstar[e] = baseline.EdgeCost(r, u, v)
		ev.src[e] = u
		ev.cost += ev.cstar[e] // empty schedule: every edge at its hybrid cost
		return true
	})
	return ev
}

// Cost returns the finalized-equivalent running cost of the current
// schedule in O(1): the cost Schedule().Clone().Finalize(r).Cost(r)
// would report, maintained incrementally by the Apply* mutators.
func (ev *Evaluator) Cost() float64 { return ev.cost }

// resetCost re-derives the running cost from the current schedule in
// one O(m) pass — needed when the schedule is replaced wholesale (the
// restricted solve starts from a cloned base with the region cleared).
func (ev *Evaluator) resetCost() {
	total := 0.0
	s := ev.sched
	for e := range ev.cstar {
		id := graph.EdgeID(e)
		if !s.IsScheduled(id) {
			total += ev.cstar[e]
			continue
		}
		if s.IsPush(id) {
			total += ev.r.Prod[ev.src[e]]
		}
		if s.IsPull(id) {
			total += ev.r.Cons[ev.g.EdgeTarget(id)]
		}
	}
	ev.cost = total
}

// ApplyPush adds edge e to the push set, adjusting the running cost by
// exactly the marginal push cost. e must not be covered-only (the
// candidate rules never push a covered edge).
func (ev *Evaluator) ApplyPush(e graph.EdgeID) {
	ev.cost += ev.pushCost(e, ev.src[e])
	ev.sched.SetPush(e)
}

// ApplyPull adds edge e to the pull set, adjusting the running cost by
// exactly the marginal pull cost. e must not be covered-only.
func (ev *Evaluator) ApplyPull(e graph.EdgeID) {
	ev.cost += ev.pullCost(e, ev.g.EdgeTarget(e))
	ev.sched.SetPull(e)
}

// ApplyCover marks edge e covered through hub: an unscheduled edge
// stops owing its hybrid cost; an already-scheduled edge keeps paying
// for its flags (coverage itself is free).
func (ev *Evaluator) ApplyCover(e graph.EdgeID, hub graph.NodeID) {
	if !ev.sched.IsScheduled(e) {
		ev.cost -= ev.cstar[e]
	}
	ev.sched.SetCovered(e, hub)
}

// Schedule returns the mutable schedule under optimization.
func (ev *Evaluator) Schedule() *core.Schedule { return ev.sched }

// Candidate is a profitable hub-graph G(X, w, y) from phase 1. HubEdge
// (the edge w → y) doubles as the candidate's identity.
type Candidate struct {
	HubEdge graph.EdgeID
	W, Y    graph.NodeID
	Gain    float64
	Xs      []graph.NodeID // producers; parallel arrays below
	XWEdges []graph.EdgeID // x → w
	XYEdges []graph.EdgeID // x → y
}

// EvalCandidate builds the hub-graph for hub edge he = (w → y) and prices
// it against the snapshot, per the phase-1 rules of Algorithm 2. It
// returns false if the hub-graph offers no positive gain.
func (ev *Evaluator) EvalCandidate(he graph.EdgeID) (Candidate, bool) {
	var c Candidate
	if !ev.EvalCandidateReuse(he, &c) {
		return Candidate{}, false
	}
	return c, true
}

// EvalCandidateReuse prices hub edge he into *c, reusing c's producer
// slices so a steady-state re-evaluation allocates nothing. On true, c is
// fully populated; on false, c's contents are unspecified. The structural
// intersection comes from the memoized cache; only the pricing pass reads
// the schedule.
func (ev *Evaluator) EvalCandidateReuse(he graph.EdgeID, c *Candidate) bool {
	s := ev.sched
	if ev.restrict != nil && !ev.restrict.Test(int(he)) {
		return false // pull edge outside the region: the commit may not write it
	}
	if s.IsCovered(he) {
		return false
	}
	w := ev.src[he]
	y := ev.g.EdgeTarget(he)
	xs, xwIDs, xyIDs, ok := ev.structs.get(he)
	if !ok {
		// First evaluation: compute into c's producer slices, which the
		// pricing pass overwrites next, and store.
		c.Xs, c.XWEdges, c.XYEdges = ev.g.CommonInEdges(w, y, ev.cfg.MaxCrossEdges, c.Xs[:0], c.XWEdges[:0], c.XYEdges[:0])
		ev.structs.put(he, c.Xs, c.XWEdges, c.XYEdges)
		xs, xwIDs, xyIDs, _ = ev.structs.get(he)
	}
	if len(xs) == 0 {
		return false
	}
	c.HubEdge, c.W, c.Y = he, w, y
	c.Xs, c.XWEdges, c.XYEdges = c.Xs[:0], c.XWEdges[:0], c.XYEdges[:0]
	var saved, cost float64
	for i, x := range xs {
		xw, xy := xwIDs[i], xyIDs[i]
		if ev.restrict != nil {
			if !ev.restrict.Test(int(xy)) {
				continue // covering an exterior cross-edge would rewrite it
			}
			if !ev.restrict.Test(int(xw)) && !s.IsPush(xw) {
				// An exterior support is usable only when it is already a
				// push: the commit's SetPush is then a no-op, so the
				// exterior assignment never changes, while the candidate
				// amortizes against structure the region did not pay for.
				continue
			}
		}
		if s.IsCovered(xw) {
			continue // don't undo an earlier hub that covers x → w
		}
		if s.IsScheduled(xy) {
			continue // cross-edge already served; covering it is useless
		}
		saved += ev.cstar[xy]
		cost += ev.pushCost(xw, x)
		c.Xs = append(c.Xs, x)
		c.XWEdges = append(c.XWEdges, xw)
		c.XYEdges = append(c.XYEdges, xy)
	}
	if len(c.Xs) == 0 {
		return false
	}
	cost += ev.pullCost(he, y)
	c.Gain = saved - cost
	return c.Gain > 0
}

// pushCost is c_X(x → w): the extra cost of making the edge a push.
func (ev *Evaluator) pushCost(xw graph.EdgeID, x graph.NodeID) float64 {
	s := ev.sched
	switch {
	case s.IsPush(xw):
		return 0 // already paid
	case s.IsPull(xw):
		return ev.r.Prod[x] // push added on top of the existing pull
	default:
		return ev.r.Prod[x] - ev.cstar[xw] // replaces the eventual hybrid cost
	}
}

// pullCost is the specular c(w → y) for the pull edge.
func (ev *Evaluator) pullCost(wy graph.EdgeID, y graph.NodeID) float64 {
	s := ev.sched
	switch {
	case s.IsPull(wy):
		return 0
	case s.IsPush(wy):
		return ev.r.Cons[y]
	default:
		return ev.r.Cons[y] - ev.cstar[wy]
	}
}

// decideInto implements phase 3 for one candidate given the lock table:
// the indices (into c.Xs) of the producers it commits are appended to buf
// (which may be nil). It returns the extended buffer — truncated back to
// its original length when the candidate does not commit — plus the
// partial and commit flags. The pull edge w → y must be granted for any
// commit.
func decideInto(ev *Evaluator, c *Candidate, g *lockGranter, buf []int32) ([]int32, bool, bool) {
	if !g.granted(c.HubEdge) {
		return buf, false, false
	}
	lo := len(buf)
	full := true
	for j := range c.Xs {
		if g.granted(c.XWEdges[j]) && g.granted(c.XYEdges[j]) {
			buf = append(buf, int32(j))
		} else {
			full = false
		}
	}
	if full {
		return buf, false, true
	}
	if ev.cfg.DisablePartialCommits || len(buf) == lo || ev.subsetGain(c, buf[lo:]) <= 0 {
		return buf[:lo], false, false
	}
	return buf, true, true
}

// subsetGain re-evaluates the sub-hub-graph G(X', w, y) restricted to the
// producers keep (indices into c.Xs) against the same snapshot.
func (ev *Evaluator) subsetGain(c *Candidate, keep []int32) float64 {
	var saved, cost float64
	for _, j := range keep {
		saved += ev.cstar[c.XYEdges[j]]
		cost += ev.pushCost(c.XWEdges[j], c.Xs[j])
	}
	cost += ev.pullCost(c.HubEdge, c.Y)
	return saved - cost
}

// Apply commits the decided subset: pull on w → y, pushes x → w, and hub
// coverage of the cross-edges. The running cost tracks every write.
func (ev *Evaluator) Apply(c *Candidate, keep []int32) {
	ev.ApplyPull(c.HubEdge)
	for _, j := range keep {
		ev.ApplyPush(c.XWEdges[j])
		ev.ApplyCover(c.XYEdges[j], c.W)
	}
}

// Commit is Apply preceded by exact dirty propagation: it sets in dirty
// every hub edge whose cached evaluation the commit can change, and no
// others beyond a structural superset. An evaluation of hub edge w' → y'
// reads only the flags of w' → y', of its supports x → w' and of its
// cross-edges x → y', so an edge a → b whose flags change (pull newly set
// on w → y, push newly set on x → w, cover set on x → y) invalidates
// itself, hub edges b → y' with a → y' present, and hub edges w' → b with
// a → w' present. Per target b (w, then y) the out-neighbourhoods of the
// changed sources are stamped and b's out- and in-edges swept against
// the stamps once. "Newly" is judged against the flags before this
// commit's writes; commits of one round write disjoint edges, so that is
// the round's snapshot. Flags only gain bits during a solve, so a hub
// edge that is covered (never a candidate again; dirtied by the commit
// that covered it) or outside restrict (never a candidate) is skipped.
func (ev *Evaluator) Commit(c *Candidate, keep []int32, dirty *bitset.Set) {
	s := ev.sched
	ev.epoch++
	changed := false
	for _, j := range keep {
		if xw := c.XWEdges[j]; !s.IsPush(xw) {
			dirty.Set(int(xw))
			ev.stampOut(c.Xs[j])
			changed = true
		}
	}
	if changed {
		ev.sweep(c.W, dirty)
	}
	ev.epoch++
	if !s.IsPull(c.HubEdge) {
		dirty.Set(int(c.HubEdge))
		ev.stampOut(c.W)
	}
	for _, j := range keep {
		dirty.Set(int(c.XYEdges[j]))
		ev.stampOut(c.Xs[j])
	}
	ev.sweep(c.Y, dirty)
	ev.Apply(c, keep)
}

// stampOut marks the out-neighbours of a for the current epoch.
func (ev *Evaluator) stampOut(a graph.NodeID) {
	for _, v := range ev.g.OutNeighbors(a) {
		ev.stamp[v] = ev.epoch
	}
}

// sweep dirties the live hub edges b → y' with y' stamped and w' → b with
// w' stamped.
func (ev *Evaluator) sweep(b graph.NodeID, dirty *bitset.Set) {
	live := func(e graph.EdgeID) bool {
		return !ev.sched.IsCovered(e) && (ev.restrict == nil || ev.restrict.Test(int(e)))
	}
	lo, _ := ev.g.OutEdgeRange(b)
	for i, y := range ev.g.OutNeighbors(b) {
		if e := lo + graph.EdgeID(i); ev.stamp[y] == ev.epoch && live(e) {
			dirty.Set(int(e))
		}
	}
	in := ev.g.InEdgeIDs(b)
	for i, w := range ev.g.InNeighbors(b) {
		if ev.stamp[w] == ev.epoch && live(in[i]) {
			dirty.Set(int(in[i]))
		}
	}
}

// state carries the solver's lock table plus the incremental candidate
// cache: a hub edge is re-priced only in the round after a commit wrote
// a flag its evaluation reads (Evaluator.Commit) —
// the same observation behind the paper's pull-based update
// dissemination between MapReduce iterations. All round-transient
// storage (dirty list, candidate list, per-worker scratch, keep buffer,
// touched lock words) is retained and reused, so a steady-state
// iteration is allocation-free and costs O(dirty + candidates), not O(m).
type state struct {
	ev        *Evaluator
	cfg       Config
	locks     []lockWord
	touched   []graph.EdgeID // lock words bid on this round
	dirty     *bitset.Set    // hub edges whose evaluation may have changed
	isCand    *bitset.Set    // hub edges whose cands slot holds a live candidate
	cands     []*Candidate   // per hub edge, allocated on first candidacy, then reused
	dirtyList []int32        // reused scratch: this round's dirty edges
	// evalOK holds one bit per dirtyList entry, set when the edge passed
	// the gain test: word i covers the workBatch entries of span i, and
	// the worker that evaluated the span stores it once, at its end.
	evalOK   []uint64
	candList []*Candidate
	keep     []int32         // reused scratch: the producers one decision keeps
	scratch  []workerScratch // per worker: what an evaluation prices into
}

// workerScratch is one worker's pricing Candidate, padded so that no two
// workers' scratch share a cache line: an evaluation rewrites the slice
// headers on every producer it appends.
type workerScratch struct {
	Candidate
	_ [64]byte
}

// newState builds the solver state Solve iterates on: all-unclaimed lock
// table, everything dirty, no candidates yet.
func newState(ev *Evaluator, cfg Config) *state {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	m := ev.g.NumEdges()
	st := &state{
		ev:      ev,
		cfg:     cfg,
		locks:   make([]lockWord, m),
		dirty:   bitset.New(m),
		isCand:  bitset.New(m),
		cands:   make([]*Candidate, m),
		scratch: make([]workerScratch, cfg.Workers),
	}
	for i := range st.locks {
		st.locks[i].owner = -1
	}
	if ev.restrict != nil {
		// Restricted solve: only region edges can become candidates, so
		// seeding anything else dirty would be wasted evaluation.
		ev.restrict.Range(func(e int) bool {
			st.dirty.Set(e)
			return true
		})
	} else {
		st.dirty.SetAll()
	}
	return st
}

// copyFrom overwrites c with a deep copy of sc, reusing c's capacity.
// Evaluations price into a per-worker scratch Candidate and only those
// passing the gain test are copied to their per-edge slot, so an edge
// that is never a candidate costs one nil pointer, not producer slices.
func (c *Candidate) copyFrom(sc *Candidate) {
	c.HubEdge, c.W, c.Y, c.Gain = sc.HubEdge, sc.W, sc.Y, sc.Gain
	c.Xs = append(c.Xs[:0], sc.Xs...)
	c.XWEdges = append(c.XWEdges[:0], sc.XWEdges...)
	c.XYEdges = append(c.XYEdges[:0], sc.XYEdges...)
}

// lockWord is an edge's lock cell: the best (gain, owner) request seen.
// owner is the candidate's hub-edge id; -1 means unclaimed.
type lockWord struct {
	gain  float64
	owner graph.EdgeID
}

// iterate runs one full candidate/lock/decide round, then returns the
// lock words the round bid on to the unclaimed state — the lock table is
// all-unowned between iterations without ever paying the O(m) clear.
func (st *state) iterate() IterationStat {
	cands := st.phaseCandidates()
	st.phaseLocks(cands)
	stat := st.phaseDecide(cands)
	stat.Dirty = len(st.dirtyList)
	for _, e := range st.touched {
		st.locks[e] = lockWord{gain: 0, owner: -1}
	}
	st.touched = st.touched[:0]
	return stat
}

const (
	// workerShare is the fewest dirty edges a worker must be handed before
	// evaluation fans out. Waking a parked thread costs 8.5–13 µs on the
	// reference container (bench/README), about 50 warm evaluations, so
	// a share must be many times that for the second worker to pay; late
	// rounds with tens of dirty edges run on the caller.
	workerShare = 512
	// workBatch is the span handed out per pull on the work cursor: small
	// enough to balance the skewed per-edge cost (celebrity neighborhoods),
	// large enough that the cursor increment is noise, and one evalOK word.
	workBatch = 64
)

// parallel runs fn over [0, n) on min(Workers, n/workerShare) workers,
// the caller being worker 0; fn(lo, hi, wk) processes items [lo, hi) on
// worker wk, lo a multiple of workBatch. Spans come off an atomic cursor,
// so results must be written to storage indexed by item, span or worker
// to be independent of scheduling.
func (st *state) parallel(n int, fn func(lo, hi, wk int)) {
	nw := min(st.cfg.Workers, n/workerShare)
	if nw <= 1 {
		fn(0, n, 0)
		return
	}
	var next atomic.Int64
	work := func(wk int) {
		for {
			lo := int(next.Add(workBatch)) - workBatch
			if lo >= n {
				return
			}
			fn(lo, min(lo+workBatch, n), wk)
		}
	}
	var wg sync.WaitGroup
	wg.Add(nw - 1)
	for wk := 1; wk < nw; wk++ {
		go func(wk int) {
			defer wg.Done()
			work(wk)
		}(wk)
	}
	work(0)
	wg.Wait()
}

// phaseCandidates re-evaluates exactly the dirty hub edges, then returns
// the full current candidate list (cached entries for clean edges, fresh
// ones for dirty edges) in hub-edge order. Workers write only per-edge
// slots and per-item results; the bitsets are updated afterwards by the
// caller alone.
func (st *state) phaseCandidates() []*Candidate {
	st.dirtyList = st.dirty.AppendSet(st.dirtyList[:0])
	list := st.dirtyList
	words := (len(list) + workBatch - 1) / workBatch
	if cap(st.evalOK) < words {
		st.evalOK = make([]uint64, words)
	}
	ok := st.evalOK[:words]
	st.parallel(len(list), func(lo, hi, wk int) {
		sc := &st.scratch[wk].Candidate
		for span := lo; span < hi; span += workBatch {
			var bits uint64
			for i := span; i < min(span+workBatch, hi); i++ {
				e := list[i]
				if !st.ev.EvalCandidateReuse(graph.EdgeID(e), sc) {
					continue
				}
				bits |= 1 << (i - span)
				c := st.cands[e]
				if c == nil {
					c = &Candidate{}
					st.cands[e] = c
				}
				c.copyFrom(sc)
			}
			ok[span/workBatch] = bits
		}
	})
	for i, e := range list {
		st.dirty.Clear(int(e))
		if ok[i/workBatch]>>(i%workBatch)&1 != 0 {
			st.isCand.Set(int(e))
		} else {
			st.isCand.Clear(int(e))
		}
	}
	st.candList = st.candList[:0]
	st.isCand.Range(func(e int) bool {
		st.candList = append(st.candList, st.cands[e])
		return true
	})
	return st.candList
}

// phaseLocks lets every candidate bid for its edges; each edge keeps the
// highest-gain bidder (ties: lowest hub-edge id). One goroutine bids, in
// candidate order: the phase is a scattered max-merge into the lock
// table, and sharing that table between bidders cost more in
// synchronization than the second bidder saved (DESIGN.md §15).
func (st *state) phaseLocks(cands []*Candidate) {
	for _, c := range cands {
		st.bid(c.HubEdge, c)
		for j := range c.Xs {
			st.bid(c.XWEdges[j], c)
			st.bid(c.XYEdges[j], c)
		}
	}
}

// bid offers candidate c for lock word e. The first bid of the round
// records e in the touched list (the owner transition off -1 happens
// exactly once per round), which is what makes the end-of-round partial
// reset complete: words never bid on were never dirtied, so the table is
// all-unowned again in O(bids), not O(m).
func (st *state) bid(e graph.EdgeID, c *Candidate) {
	cur := &st.locks[e]
	if cur.owner == -1 {
		st.touched = append(st.touched, e)
		*cur = lockWord{gain: c.Gain, owner: c.HubEdge}
	} else if c.Gain > cur.gain || (c.Gain == cur.gain && c.HubEdge < cur.owner) {
		*cur = lockWord{gain: c.Gain, owner: c.HubEdge}
	}
}

// lockGranter reports whether an edge's lock is granted to the candidate
// being decided: a direct lock-table read, so deciding allocates nothing.
type lockGranter struct {
	locks []lockWord
	owner graph.EdgeID
}

func (lg *lockGranter) granted(e graph.EdgeID) bool { return lg.locks[e].owner == lg.owner }

// phaseDecide runs the phase-3 rule (decideInto) for every
// candidate against the lock table and commits the winners as it goes.
// That equals deciding everything against the round's snapshot and
// applying afterwards: a decision reads only the lock table and the flags
// of edges locked by its own candidate, and a commit writes only edges
// locked by its candidate. Each commit dirties what it invalidates for
// the next round before it writes. The phase stays on one goroutine: it
// is reads of the lock table the bidder just wrote, and a second core
// bought nothing measurable (DESIGN.md §15).
func (st *state) phaseDecide(cands []*Candidate) IterationStat {
	stat := IterationStat{Candidates: len(cands)}
	lg := lockGranter{locks: st.locks}
	for _, c := range cands {
		lg.owner = c.HubEdge
		keep, partial, ok := decideInto(st.ev, c, &lg, st.keep[:0])
		st.keep = keep
		if !ok {
			continue
		}
		st.ev.Commit(c, keep, st.dirty)
		if partial {
			stat.PartialCommits++
		} else {
			stat.FullCommits++
		}
		stat.CoveredEdges += len(keep)
	}
	return stat
}

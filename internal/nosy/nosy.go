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
// graph: every hub edge's producer span is built once before round 0, on
// the workers (structCache), and is that hub edge's candidate. An
// evaluation compacts the span in place to the producers that pass its
// filter and stores the gain per edge, so no producer list is copied.
// Phase 1 re-prices only the dirty set, and a commit dirties exactly the
// hub edges whose evaluation reads a flag it wrote (Evaluator.Commit;
// DESIGN.md §15); round storage is reused, and a lock is one 8-byte word
// a bid max-merges into. Evaluation and the structure build fan out on
// par.Blocks when a worker's share outweighs a thread wake-up, and a
// worker's panic reaches the caller; bidding, deciding and committing
// run on the solve goroutine. The schedule produced is
// identical to the naive three-phase sweep for every worker count. A solve
// returns the schedule alone; its rounds are streamed, one IterationStat
// each, to Config.OnIteration and kept nowhere.
package nosy

import (
	"context"
	"math"

	"piggyback/internal/baseline"
	"piggyback/internal/bitset"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/par"
	"piggyback/internal/workload"
)

// Config tunes PARALLELNOSY. The zero value uses the defaults.
type Config struct {
	// Workers is the parallelism degree; 0 means GOMAXPROCS.
	Workers int
	// MaxCrossEdges bounds |X| per candidate hub-graph, the bound b of
	// §4.2 (100 000 for the Twitter runs). 0 means DefaultMaxCrossEdges.
	MaxCrossEdges int
	// OnIteration, when non-nil, streams every IterationStat as the
	// round that produced it completes. The callback runs on the solve
	// goroutine between rounds; it must not mutate solver inputs and
	// should return quickly.
	OnIteration func(IterationStat)
}

// DefaultMaxCrossEdges matches §4.2.
const DefaultMaxCrossEdges = 100000

// IterationStat describes one PARALLELNOSY iteration.
type IterationStat struct {
	Iteration int // 0-based round number
	// Dirty is the number of hub edges re-priced this round: those whose
	// evaluation reads a flag the previous round's commits wrote (round
	// 0: every edge).
	Dirty          int
	Candidates     int     // hub-graphs passing the phase-1 gain test
	FullCommits    int     // candidates committed with all locks
	PartialCommits int     // candidates committed as sub-hub-graphs
	CoveredEdges   int     // cross-edges newly covered this iteration
	Cost           float64 // finalized-equivalent schedule cost after the iteration
}

// Solve runs PARALLELNOSY to convergence and returns the finalized
// schedule (every edge pushed, pulled, or hub-covered).
func Solve(g *graph.Graph, r *workload.Rates, cfg Config) *core.Schedule {
	s, _ := SolveCtx(context.Background(), g, r, cfg)
	return s
}

// SolveCtx is Solve with cooperative cancellation: the context is checked
// once per iteration (round boundary — rounds are the solver's atomic
// unit, so no per-edge overhead), and on cancellation the rounds
// committed so far are finalized and returned with the context's error.
// PARALLELNOSY's rounds are monotone — each only adds profitable hub
// commits on top of a schedule the finalization completes with the hybrid
// rule — so the result is a valid anytime schedule for every stop point.
// The rounds are reported on Config.OnIteration only.
func SolveCtx(ctx context.Context, g *graph.Graph, r *workload.Rates, cfg Config) (*core.Schedule, error) {
	st := newState(NewEvaluator(g, r, cfg), cfg)
	cause := st.run(ctx)
	st.ev.sched.Finalize(r)
	return st.ev.sched, cause
}

// run iterates rounds until one commits nothing or ctx is done (checked
// at round boundaries only).
func (st *state) run(ctx context.Context) error {
	for it := 0; ; it++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		stat := st.iterate()
		stat.Iteration = it
		stat.Cost = st.ev.Cost()
		if st.cfg.OnIteration != nil {
			st.cfg.OnIteration(stat)
		}
		if stat.FullCommits+stat.PartialCommits == 0 {
			return nil
		}
	}
}

// Evaluator holds the candidate-pricing logic. All methods read the
// current schedule snapshot; only Commit and the Apply* mutators write
// it, from one goroutine with no evaluation in flight.
//
// The structural half of an evaluation — the common-producer intersection
// behind a hub edge — depends only on the immutable graph, so NewEvaluator
// builds it for every hub edge into a structCache, and an evaluation is a
// re-pricing pass over the stored span that compacts it. Evaluations are
// safe for concurrent use by goroutines evaluating distinct hub edges, as
// a round does; the mutators are not.
type Evaluator struct {
	g       *graph.Graph
	r       *workload.Rates
	sched   *core.Schedule
	cstar   []float64      // hybrid per-edge cost c*(e)
	src     []graph.NodeID // source node per edge (avoids CSR binary search)
	structs *structCache

	// cost is the finalized-equivalent running cost of sched: scheduled
	// edges priced by their push/pull flags, unscheduled edges at their
	// hybrid cost c* (what Finalize will charge them). Maintained O(1)
	// per mutation by the Apply* methods — the incremental.Maintainer
	// discipline — so every round reports it without an O(m) clone.
	cost float64

	// stamp[v] == epoch marks v as an out-neighbour of a source whose edge
	// into the commit target being swept changed (Commit); bumping epoch
	// unmarks every node at once.
	stamp []uint32
	epoch uint32
}

// NewEvaluator returns an evaluator over an empty schedule for g, its
// structCache built on cfg.Workers goroutines.
func NewEvaluator(g *graph.Graph, r *workload.Rates, cfg Config) *Evaluator {
	if cfg.MaxCrossEdges == 0 {
		cfg.MaxCrossEdges = DefaultMaxCrossEdges
	}
	ev := &Evaluator{
		g:       g,
		r:       r,
		sched:   core.NewSchedule(g),
		cstar:   make([]float64, g.NumEdges()),
		src:     make([]graph.NodeID, g.NumEdges()),
		structs: buildStructCache(g, cfg.MaxCrossEdges, cfg.Workers),
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
// schedule in O(1): the cost sched.Clone().Finalize(r).Cost(r)
// would report, maintained incrementally by the Apply* mutators.
func (ev *Evaluator) Cost() float64 { return ev.cost }

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

// eval prices hub edge he = (w → y) against the snapshot, per the
// phase-1 rules of Algorithm 2, and compacts its span in place: the
// producers that pass the filter move to the front, in order, and the
// record keeps their count. It returns the gain and whether the hub-graph
// offers a positive one; the span is then the candidate's producer list.
// Both filters read flags that only gain bits during a solve, so a
// dropped producer could never pass again (DESIGN.md §15).
func (ev *Evaluator) eval(he graph.EdgeID) (float64, bool) {
	s := ev.sched
	if s.IsCovered(he) {
		return 0, false
	}
	xs, xw, xy := ev.structs.get(he)
	n := 0
	var saved, cost float64
	for i, x := range xs {
		if s.IsCovered(xw[i]) {
			continue // don't undo an earlier hub that covers x → w
		}
		if s.IsScheduled(xy[i]) {
			continue // cross-edge already served; covering it is useless
		}
		saved += ev.cstar[xy[i]]
		cost += ev.pushCost(xw[i], x)
		if n != i {
			xs[n], xw[n], xy[n] = x, xw[i], xy[i]
		}
		n++
	}
	ev.structs.recs[he].n = int32(n)
	if n == 0 {
		return 0, false
	}
	cost += ev.pullCost(he, ev.g.EdgeTarget(he))
	gain := saved - cost
	return gain, gain > 0
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

// decideInto implements phase 3 for the candidate of hub edge he given
// the lock table: the indices (into its span) of the producers it commits
// are appended to buf (which may be nil). It returns the extended buffer
// — truncated back to its original length when the candidate does not
// commit — plus the partial and commit flags. The pull edge w → y must be
// granted for any commit.
func decideInto(ev *Evaluator, he graph.EdgeID, g lockGranter, buf []int32) ([]int32, bool, bool) {
	if !g.granted(he) {
		return buf, false, false
	}
	_, xw, xy := ev.structs.get(he)
	lo := len(buf)
	full := true
	for j := range xw {
		if g.granted(xw[j]) && g.granted(xy[j]) {
			buf = append(buf, int32(j))
		} else {
			full = false
		}
	}
	if full {
		return buf, false, true
	}
	if len(buf) == lo || ev.subsetGain(he, buf[lo:]) <= 0 {
		return buf[:lo], false, false
	}
	return buf, true, true
}

// subsetGain re-evaluates the sub-hub-graph G(X', w, y) of hub edge he
// restricted to the producers keep (indices into its span) against the
// same snapshot.
func (ev *Evaluator) subsetGain(he graph.EdgeID, keep []int32) float64 {
	xs, xw, xy := ev.structs.get(he)
	var saved, cost float64
	for _, j := range keep {
		saved += ev.cstar[xy[j]]
		cost += ev.pushCost(xw[j], xs[j])
	}
	cost += ev.pullCost(he, ev.g.EdgeTarget(he))
	return saved - cost
}

// Apply commits the decided subset of hub edge he's span: pull on w → y,
// pushes x → w, and hub coverage of the cross-edges. The running cost
// tracks every write.
func (ev *Evaluator) Apply(he graph.EdgeID, keep []int32) {
	_, xw, xy := ev.structs.get(he)
	ev.ApplyPull(he)
	for _, j := range keep {
		ev.ApplyPush(xw[j])
		ev.ApplyCover(xy[j], ev.src[he])
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
// that covered it) is skipped.
func (ev *Evaluator) Commit(he graph.EdgeID, keep []int32, dirty *bitset.Set) {
	s := ev.sched
	xs, xw, xy := ev.structs.get(he)
	w, y := ev.src[he], ev.g.EdgeTarget(he)
	ev.epoch++
	changed := false
	for _, j := range keep {
		if !s.IsPush(xw[j]) {
			dirty.Set(int(xw[j]))
			ev.stampOut(xs[j])
			changed = true
		}
	}
	if changed {
		ev.sweep(w, dirty)
	}
	ev.epoch++
	if !s.IsPull(he) {
		dirty.Set(int(he))
		ev.stampOut(w)
	}
	for _, j := range keep {
		dirty.Set(int(xy[j]))
		ev.stampOut(xs[j])
	}
	ev.sweep(y, dirty)
	ev.Apply(he, keep)
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
	lo, _ := ev.g.OutEdgeRange(b)
	for i, y := range ev.g.OutNeighbors(b) {
		if e := lo + graph.EdgeID(i); ev.stamp[y] == ev.epoch && !ev.sched.IsCovered(e) {
			dirty.Set(int(e))
		}
	}
	in := ev.g.InEdgeIDs(b)
	for i, w := range ev.g.InNeighbors(b) {
		if ev.stamp[w] == ev.epoch && !ev.sched.IsCovered(in[i]) {
			dirty.Set(int(in[i]))
		}
	}
}

// state carries the solver's lock table plus the incremental candidate
// cache: a hub edge is re-priced only in the round after a commit wrote
// a flag its evaluation reads (Evaluator.Commit) —
// the same observation behind the paper's pull-based update
// dissemination between MapReduce iterations. A candidate is its hub
// edge's compacted span plus its gain slot. All round-transient storage
// (dirty list, candidate list, keep buffer) is retained and reused, so a
// steady-state iteration allocates nothing and, but for the lock table's
// clear, costs O(dirty + candidates).
type state struct {
	ev        *Evaluator
	cfg       Config
	locks     []uint64    // per edge, the best bid this round (lockWord); 0 = unclaimed
	dirty     *bitset.Set // hub edges whose evaluation may have changed
	isCand    *bitset.Set // hub edges whose span and gain hold a live candidate
	gain      []float64   // per hub edge, the gain of its last evaluation
	dirtyList []int32     // reused scratch: this round's dirty edges
	// evalOK holds one bit per dirtyList entry, set when the edge passed
	// the gain test: word i covers the workBatch entries of batch i, and
	// the worker that evaluated the batch stores it once, at its end.
	evalOK   []uint64
	candList []int32 // reused scratch: this round's candidates, by hub edge
	keep     []int32 // reused scratch: the producers one decision keeps
}

// newState builds the solver state Solve iterates on: all-unclaimed lock
// table, everything dirty, no candidates yet.
func newState(ev *Evaluator, cfg Config) *state {
	m := ev.g.NumEdges()
	st := &state{
		ev:     ev,
		cfg:    cfg,
		locks:  make([]uint64, m),
		dirty:  bitset.New(m),
		isCand: bitset.New(m),
		gain:   make([]float64, m),
	}
	st.dirty.SetAll()
	return st
}

// lockWord packs the bid of hub edge he's candidate, whose gain is gain,
// into one word: the float32 bits of the gain above the complement of
// he. Gains are positive, so a larger word is a larger float32 gain or,
// between equal gains, a lower hub edge — the lock order, up to the
// float32 rounding bid settles exactly. No candidate's word is 0, the
// unclaimed word.
func lockWord(gain float64, he graph.EdgeID) uint64 {
	return uint64(math.Float32bits(float32(gain)))<<32 | uint64(^uint32(he))
}

// lockOwner is the hub edge whose bid w is.
func lockOwner(w uint64) graph.EdgeID { return graph.EdgeID(^uint32(w)) }

// iterate runs one full candidate/lock/decide round, then clears the lock
// table for the next.
func (st *state) iterate() IterationStat {
	cands := st.phaseCandidates()
	st.phaseLocks(cands)
	stat := st.phaseDecide(cands)
	stat.Dirty = len(st.dirtyList)
	clear(st.locks)
	return stat
}

const (
	// workerShare is the fewest dirty edges a worker must be handed before
	// evaluation fans out. bench/README's 8.5–13 µs wake-up is a loopback
	// ping-pong between two hot goroutines; inside a fan-out the helper
	// starts later. On solve_batch's streamed 60k graph (seed 7, ten
	// solves, 2 CPUs) its first batch starts 63–84 / 68–101 / 111–539 µs
	// (p10/p50/p90 per solve) after the go statement, while the caller's
	// own share takes 229–411 µs at p50; after ≥ 1.5 ms idle the p50 is
	// the same and the p90 reaches 1.2 ms. So a share must be many
	// wake-ups' worth of evaluations for the second worker to pay; late
	// rounds with tens of dirty edges run on the caller.
	workerShare = 512
	// workBatch is the span handed out per pull on the work cursor: small
	// enough to balance the skewed per-edge cost (celebrity neighborhoods),
	// large enough that the cursor increment is noise, and one evalOK word.
	workBatch = 64
)

// phaseCandidates re-evaluates exactly the dirty hub edges, then returns
// the full current candidate list (clean candidates as they stand, dirty
// edges freshly evaluated) in hub-edge order. Workers write only their
// edges' spans and gain slots and per-item results; the bitsets are
// updated afterwards by the caller alone.
func (st *state) phaseCandidates() []int32 {
	st.dirtyList = st.dirty.AppendSet(st.dirtyList[:0])
	list := st.dirtyList
	words := (len(list) + workBatch - 1) / workBatch
	if cap(st.evalOK) < words {
		st.evalOK = make([]uint64, words)
	}
	ok := st.evalOK[:words]
	par.Blocks(par.Workers(st.cfg.Workers, len(list), workerShare), len(list), workBatch, func(lo, hi, _ int) {
		var bits uint64
		for i := lo; i < hi; i++ {
			e := list[i]
			if gain, pass := st.ev.eval(graph.EdgeID(e)); pass {
				st.gain[e] = gain
				bits |= 1 << (i - lo)
			}
		}
		ok[lo/workBatch] = bits
	})
	for i, e := range list {
		st.dirty.Clear(int(e))
		if ok[i/workBatch]>>(i%workBatch)&1 != 0 {
			st.isCand.Set(int(e))
		} else {
			st.isCand.Clear(int(e))
		}
	}
	st.candList = st.isCand.AppendSet(st.candList[:0])
	return st.candList
}

// phaseLocks lets every candidate bid for its edges; each edge keeps the
// highest-gain bidder (ties: lowest hub-edge id). One goroutine bids, in
// candidate order: the phase is a scattered max-merge into the lock
// table, and sharing that table between bidders cost more in
// synchronization than the second bidder saved (DESIGN.md §15).
func (st *state) phaseLocks(cands []int32) {
	for _, e := range cands {
		he := graph.EdgeID(e)
		gain := st.gain[he]
		w := lockWord(gain, he)
		st.bid(he, w, gain)
		_, xw, xy := st.ev.structs.get(he)
		for j := range xw {
			st.bid(xw[j], w, gain)
			st.bid(xy[j], w, gain)
		}
	}
}

// bid offers a candidate whose gain is gain and lockWord w for lock e:
// the larger word wins, unless the two bids round to the same float32
// gain, where the exact float64 gains decide and only equal ones fall
// through to the word (lowest hub edge).
func (st *state) bid(e graph.EdgeID, w uint64, gain float64) {
	cur := st.locks[e]
	if cur>>32 == w>>32 && cur != 0 {
		if g := st.gain[lockOwner(cur)]; gain != g {
			if gain > g {
				st.locks[e] = w
			}
			return
		}
	}
	st.locks[e] = max(cur, w)
}

// lockGranter reports whether an edge's lock is granted to the candidate
// being decided: the edge's word is the candidate's own lockWord.
type lockGranter struct {
	locks []uint64
	word  uint64
}

func (lg lockGranter) granted(e graph.EdgeID) bool { return lg.locks[e] == lg.word }

// phaseDecide runs the phase-3 rule (decideInto) for every
// candidate against the lock table and commits the winners as it goes.
// That equals deciding everything against the round's snapshot and
// applying afterwards: a decision reads only the lock table and the flags
// of edges locked by its own candidate, and a commit writes only edges
// locked by its candidate. Each commit dirties what it invalidates for
// the next round before it writes. The phase stays on one goroutine: it
// is reads of the lock table the bidder just wrote, and a second core
// bought nothing measurable (DESIGN.md §15).
func (st *state) phaseDecide(cands []int32) IterationStat {
	stat := IterationStat{Candidates: len(cands)}
	for _, e := range cands {
		he := graph.EdgeID(e)
		lg := lockGranter{locks: st.locks, word: lockWord(st.gain[he], he)}
		keep, partial, ok := decideInto(st.ev, he, lg, st.keep[:0])
		st.keep = keep
		if !ok {
			continue
		}
		st.ev.Commit(he, keep, st.dirty)
		if partial {
			stat.PartialCommits++
		} else {
			stat.FullCommits++
		}
		stat.CoveredEdges += len(keep)
	}
	return stat
}

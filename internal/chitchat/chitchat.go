// Package chitchat implements the CHITCHAT approximation algorithm (§3.1).
//
// CHITCHAT maps the DISSEMINATION problem to weighted SETCOVER: the ground
// set is the edges of the social graph, and the candidate collection
// contains (a) singleton edges served directly at the hybrid cost
// c*(u→v) = min(rp(u), rc(v)) and (b) hub-graphs G(X, w, Y), which pay for
// the pushes X→w and pulls w→Y and cover, for free, every cross-edge
// X→Y present in the graph. The greedy step — find the candidate with the
// lowest cost per newly covered element — is solved per hub by the
// weighted densest-subgraph oracle of package densest (Lemma 1), giving
// an overall O(ln n) approximation (Theorem 4). The solve is Algorithm 1
// as written: build every hub instance and evaluate it once (hubs are
// independent there: par.Blocks on Config.Workers, merged in hub order), then
// one serial loop that commits a fresh queue head or re-evaluates a stale one.
//
// Instances. Each hub-graph is materialized once (CSR adjacency + weights,
// capped at the cross-edge bound b) into a densest.Decremental
// that stays resident for the whole solve, next to the hub's latest oracle
// output. Re-evaluating a hub is a peel of the live, unpaid part of its
// instance — no rebuild, no graph adjacency scans, no visit to covered
// elements (ensureInst compacts an instance's adjacency once half of it
// is dead) or to paid supports. Coverage is committed from the same
// materialized elements the oracle counted, so the claimed newlyCovered
// always equals the coverage the commit performs, including when the
// bound truncates the instance.
//
// Inverted index. inv maps a graph edge to the (hub, element) pairs that
// materialized it, so a commit removes each covered element from exactly
// the instances that contain it and only those hubs turn stale; a hub
// untouched by a commit keeps its oracle output with no work at all. One
// flat array behind per-edge offsets, sized by counting the built instances.
//
// Lazy refresh. The paper refreshes every affected hub after each
// selection; here a commit eagerly re-evaluates only the hubs whose ratio
// may have IMPROVED (support weights zeroed — the committed hub itself,
// or the hub paid for by a singleton), while hubs that merely lost
// elements keep their stale queue entries until they reach the head. That
// is plain lazy greedy: a stale head is popped, re-evaluated and
// requeued, and the loop commits whichever head is fresh. A stale entry
// is no lower bound of its hub's ratio — the peel is a factor-2
// heuristic, not monotone under element loss — so a fresh head may commit
// ahead of a stale hub that would re-evaluate below it. Which hubs get
// re-evaluated is therefore part of the algorithm's definition;
// TestSchedulesMatchShipped pins the schedules it yields (DESIGN.md §14
// has the counterexample).
//
// Post-commit replay. The hub that has just committed is not re-peeled:
// its next peel would pop the saved prefix of the committed one, and
// densest.Decremental.Replay walks that prefix instead (DESIGN.md §14).
package chitchat

import (
	"context"
	"slices"

	"piggyback/internal/baseline"
	"piggyback/internal/bitset"
	"piggyback/internal/core"
	"piggyback/internal/densest"
	"piggyback/internal/graph"
	"piggyback/internal/par"
	"piggyback/internal/pq"
	"piggyback/internal/workload"
)

// Config tunes CHITCHAT. The zero value uses the defaults.
type Config struct {
	// Workers bounds the seed phase's goroutines; 0 means GOMAXPROCS.
	// Schedules and Progress streams are the same for every value.
	Workers int
	// OnProgress, when non-nil, streams a Progress snapshot after every
	// greedy commit. The callback runs on the solve goroutine; it must
	// not mutate solver inputs and should return quickly.
	OnProgress func(Progress)

	// maxCrossEdges bounds the number of cross-edges materialized per
	// hub-graph instance, the bound b of §3.2/§4.2; 0 means
	// defaultMaxCrossEdges. Only tests set it. The bound is applied
	// once, when the instance is materialized; both the oracle's
	// coverage claim and the committed coverage are computed from the
	// same materialized element set, so they always agree.
	maxCrossEdges int
}

// Progress is the solve-progress snapshot streamed to Config.OnProgress
// after each greedy commit.
type Progress struct {
	Commits   int // greedy commits so far (hubs + singletons)
	Covered   int // ground-set edges served so far
	Remaining int // ground-set edges still unserved
	// Saved is what the commits so far have won over serving every edge
	// they covered directly: Σ c*(covered element) − Σ support weight paid.
	// A singleton pays exactly its c*, so only hub commits move it, and
	// HybridCost − Saved of an exhausted solve is the schedule's cost.
	Saved float64
}

// defaultMaxCrossEdges matches the bound used for the Twitter runs in §4.2.
const defaultMaxCrossEdges = 100000

// seedBlock is how many hubs a seed worker takes per pull on the cursor:
// small, because a celebrity's instance costs hundreds of times a leaf's.
const seedBlock = 16

// Test hooks; nil outside tests. seedObserver sees each hub on the worker
// about to build it, commitObserver after every hub commit the coverage
// the oracle claimed against the coverage the commit actually performed,
// replayObserver every post-commit replay next to a fresh peel.
var (
	seedObserver   func(w graph.NodeID)
	commitObserver func(w graph.NodeID, claimed, covered int)
	replayObserver func(w graph.NodeID, replayed, peeled densest.Result)
)

// Solve computes a request schedule for g under rates r. The result is
// always valid (Theorem 1): every edge is pushed, pulled, or covered
// through a hub.
func Solve(g *graph.Graph, r *workload.Rates, cfg Config) *core.Schedule {
	s, _ := SolveCtx(context.Background(), g, r, cfg)
	return s
}

// SolveCtx is Solve with cooperative cancellation: the context is checked
// once per greedy commit (iteration granularity — no per-edge overhead),
// and on cancellation the solve stops where it is, serves every still-
// uncovered edge directly via the hybrid rule (the FEEDINGFRENZY
// finalization), and returns the best-so-far schedule together with the
// context's error. The returned schedule is always Theorem-1 valid, even
// when err != nil — CHITCHAT is an anytime solver under this contract.
func SolveCtx(ctx context.Context, g *graph.Graph, r *workload.Rates, cfg Config) (*core.Schedule, error) {
	if cfg.maxCrossEdges == 0 {
		cfg.maxCrossEdges = defaultMaxCrossEdges
	}
	n, m := g.NumNodes(), g.NumEdges()
	s := core.NewSchedule(g)
	if m == 0 {
		return s, nil
	}

	sv := &solver{
		g: g, r: r, cfg: cfg, s: s,
		n:         n,
		uncovered: bitset.New(m),
		remaining: m,
		q:         pq.New(n + m),
		sc:        scratch{yMark: make([]int64, n), yPos: make([]int32, n)},
		insts:     make([]*hubInstance, n),
		evals:     make([]hubEval, n),
	}
	sv.uncovered.SetAll()

	// Singleton candidates never change ratio: c*(e) per single element.
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		sv.q.Push(n+int(e), baseline.EdgeCost(r, u, v))
		return true
	})
	sv.seed()

	var cause error
	for sv.remaining > 0 && sv.q.Len() > 0 {
		if err := ctx.Err(); err != nil {
			// Canceled mid-solve: stop here; the Finalize below serves
			// everything still uncovered at the hybrid cost, so the
			// partial greedy prefix is still a valid schedule.
			cause = err
			break
		}
		id, _ := sv.q.PopMin()
		if id >= n {
			// Singleton edge: ratio never changes; skip if already covered.
			e := graph.EdgeID(id - n)
			if !sv.uncovered.Test(int(e)) {
				continue
			}
			sv.commitSingleton(e)
			sv.noteCommit()
			continue
		}
		w := graph.NodeID(id)
		if !sv.fresh(w) {
			// Stale head: re-evaluate and requeue it (or drop it, exhausted);
			// the next turn commits whichever head is then fresh.
			sv.reEval(w)
			continue
		}
		// The head's oracle output was computed against the current state
		// of its instance, which no commit has touched since: commit it.
		sv.commitHub(w)
		sv.noteCommit()
	}
	// Serve anything left directly: on the normal path this is defensive
	// (singletons cover every edge); on the cancellation path it is the
	// hybrid-rule finalization that makes the partial solve valid.
	s.Finalize(r)
	return s, cause
}

// noteCommit bumps the progress counters after a greedy commit and
// streams a snapshot to Config.OnProgress when set.
func (sv *solver) noteCommit() {
	sv.commits++
	if sv.cfg.OnProgress != nil {
		sv.cfg.OnProgress(Progress{
			Commits:   sv.commits,
			Covered:   sv.g.NumEdges() - sv.remaining,
			Remaining: sv.remaining,
			Saved:     sv.saved,
		})
	}
}

// solver carries the solve state; only seed leaves the caller's goroutine.
type solver struct {
	g   *graph.Graph
	r   *workload.Rates
	cfg Config
	s   *core.Schedule

	n         int
	uncovered *bitset.Set
	remaining int
	q         *pq.IndexedMin
	sc        scratch

	// insts[w] is hub w's instance; nil when w has no producers or no
	// consumers, or when its oracle kept nothing from the start.
	// inv[invAt[e]:invAt[e+1]] lists, by ascending hub, the (hub, element)
	// pairs that materialized graph edge e: what covering e must remove.
	insts []*hubInstance
	invAt []int
	inv   []invEntry

	// evals[w] is hub w's latest oracle output while it matches the
	// CURRENT state of instance w, and zero ("stale") once a commit has
	// removed one of the instance's elements. Stale hubs are re-evaluated
	// when they reach the head of the queue; hubs whose weights were
	// zeroed may have improved and are re-evaluated eagerly at commit.
	evals []hubEval

	// Progress counters for Config.OnProgress.
	commits int
	saved   float64

	memb []bool // member marks, sized to the largest instance
}

// seed builds every hub instance and evaluates it against the full ground
// set, keeping the hubs the oracle keeps something of. That reads only the
// graph and the rates and writes the hub's two slots, so blocks of hubs
// fan out on par.Blocks (at most one worker per block), one scratch per
// worker; a panic — the lowest hub's, if several — reaches the caller.
// index reads the slots in hub order, so nothing downstream can tell how
// many workers filled them.
func (sv *solver) seed() {
	n := sv.n
	nw := par.Workers(sv.cfg.Workers, n, seedBlock)
	scs := make([]*scratch, nw)
	scs[0] = &sv.sc
	par.Blocks(nw, n, seedBlock, func(from, to, wk int) {
		sc := scs[wk]
		if sc == nil {
			sc = &scratch{yMark: make([]int64, n), yPos: make([]int32, n)}
			scs[wk] = sc
		}
		for w := from; w < to; w++ {
			if seedObserver != nil {
				seedObserver(graph.NodeID(w))
			}
			hi := buildHubInstance(sv.g, sv.r, graph.NodeID(w), sv.cfg, sc)
			if ev := evalHub(hi, sc); ev.Members != nil {
				sv.insts[w], sv.evals[w] = hi, ev
			}
		}
	})
	sv.index()
}

// index lays out the inverted index and queues the kept hubs: count the
// elements per graph edge, turn counts into bucket starts, fill by hub then
// element (DESIGN.md §14), which moves invAt[e+1] from e's start to its end.
func (sv *solver) index() {
	at := make([]int, sv.g.NumEdges()+1)
	for _, hi := range sv.insts {
		if hi != nil {
			for _, e := range hi.gid {
				at[e+1]++
			}
		}
	}
	total := 0
	for e, cnt := range at[1:] {
		at[e+1] = total
		total += cnt
	}
	sv.inv, sv.invAt = make([]invEntry, total), at
	for w, hi := range sv.insts {
		if hi == nil {
			continue
		}
		for ei, e := range hi.gid {
			sv.inv[at[e+1]] = invEntry{int32(w), int32(ei)}
			at[e+1]++
		}
		sv.q.Push(w, sv.evals[w].ratio())
	}
}

// fresh reports whether hub w's oracle output matches its instance.
func (sv *solver) fresh(w graph.NodeID) bool { return sv.evals[w].Members != nil }

// hubInstance binds a hub's materialized oracle instance to the graph:
// instance vertices [0,nx) are the producers xs, [nx, nx+len(ys)) the
// consumers ys, and the last vertex is the hub; gid maps every
// materialized instance edge back to its graph edge id.
type hubInstance struct {
	d    *densest.Decremental
	xs   []graph.NodeID // aliases graph storage, sorted
	ys   []graph.NodeID // aliases graph storage, sorted
	xIDs []graph.EdgeID
	yLo  graph.EdgeID
	nx   int
	gid  []graph.EdgeID
}

func (hi *hubInstance) hubIdx() int32 { return int32(hi.nx + len(hi.ys)) }

// xIndex and yIndex return the instance vertex of producer x, consumer y.
func (hi *hubInstance) xIndex(x graph.NodeID) (int, bool) { return slices.BinarySearch(hi.xs, x) }

func (hi *hubInstance) yIndex(y graph.NodeID) (int, bool) {
	j, ok := slices.BinarySearch(hi.ys, y)
	return hi.nx + j, ok
}

// buildHubInstance materializes the maximal hub-graph centered on w — X =
// producers of w, Y = consumers of w, elements restricted to the first
// maxCrossEdges cross-edges in (producer, adjacency) order — into a
// decremental oracle; nil when w has no producers or no consumers. It
// runs before any commit, so every edge is an element and every support
// weight is unpaid.
func buildHubInstance(g *graph.Graph, r *workload.Rates, w graph.NodeID,
	cfg Config, sc *scratch) *hubInstance {
	xs := g.InNeighbors(w)
	ys := g.OutNeighbors(w)
	if len(xs) == 0 || len(ys) == 0 {
		return nil
	}
	xIDs := g.InEdgeIDs(w)
	yLo, _ := g.OutEdgeRange(w)

	nx, ny := len(xs), len(ys)
	hub := int32(nx + ny)
	if cap(sc.weight) < nx+ny+1 {
		sc.weight = make([]float64, nx+ny+1)
	}
	weight := sc.weight[:nx+ny+1]
	weight[hub] = 0
	edges := sc.edges[:0]
	gids := sc.gids[:0]
	for i, x := range xs {
		weight[i] = r.Prod[x]
		edges = append(edges, [2]int32{int32(i), hub})
		gids = append(gids, xIDs[i])
	}
	// Mark Y membership in the generation-stamped scratch array (a map
	// here dominated the whole solve on dense graphs).
	sc.gen++
	for j, y := range ys {
		weight[nx+j] = r.Cons[y]
		edges = append(edges, [2]int32{hub, int32(nx + j)})
		gids = append(gids, yLo+graph.EdgeID(j))
		sc.yMark[y] = sc.gen
		sc.yPos[y] = int32(nx + j)
	}
	// Cross-edges x → y, bounded as in the paper.
	crossBudget := cfg.maxCrossEdges
	for i, x := range xs {
		if crossBudget <= 0 {
			break
		}
		lo, hi := g.OutEdgeRange(x)
		targets := g.OutNeighbors(x)
		for k := lo; k < hi; k++ {
			y := targets[k-lo]
			if y == w || sc.yMark[y] != sc.gen {
				continue
			}
			edges = append(edges, [2]int32{int32(i), sc.yPos[y]})
			gids = append(gids, k)
			crossBudget--
			if crossBudget <= 0 {
				break
			}
		}
	}
	sc.edges = edges // keep any growth for the next build
	sc.gids = gids
	return &hubInstance{
		d:    densest.NewDecremental(densest.Instance{N: nx + ny + 1, Weight: weight, Edges: edges}),
		xs:   xs,
		ys:   ys,
		xIDs: xIDs,
		yLo:  yLo,
		nx:   nx,
		gid:  append([]graph.EdgeID(nil), gids...),
	}
}

// invEntry is one place graph edge e was materialized, for e's bucket.
type invEntry struct {
	hub  int32
	elem int32
}

// ensureInst returns the queued hub w's instance, compacted: every oracle
// evaluation and every commit starts here, outside any IncidentEdges
// iteration (densest.Compact is a no-op until half the represented
// elements are dead).
func (sv *solver) ensureInst(w graph.NodeID) *hubInstance {
	hi := sv.insts[w]
	hi.d.Compact()
	return hi
}

// coverEdge removes graph edge e from the uncovered ground set and, via
// the inverted index, deletes its element from every instance that
// materialized it. Those hubs' oracle outputs may now overstate coverage,
// so they are stale until lazily refreshed.
func (sv *solver) coverEdge(e graph.EdgeID) {
	if !sv.uncovered.Test(int(e)) {
		return
	}
	sv.uncovered.Clear(int(e))
	sv.remaining--
	for _, en := range sv.inv[sv.invAt[e]:sv.invAt[e+1]] {
		if sv.insts[en.hub].d.RemoveEdge(int(en.elem)) {
			sv.evals[en.hub] = hubEval{}
		}
	}
}

// commitSingleton serves edge e directly at the hybrid cost. Paying for
// the push (or pull) zeroes the matching support weight in the one hub
// instance that uses it (the edge is a support of its endpoint's maximal
// hub-graph), which can only IMPROVE that hub's ratio — so the hub is
// re-evaluated eagerly.
func (sv *solver) commitSingleton(e graph.EdgeID) {
	u := sv.g.EdgeSource(e)
	v := sv.g.EdgeTarget(e)
	improved := graph.NodeID(-1)
	if sv.r.Prod[u] <= sv.r.Cons[v] {
		sv.s.SetPush(e)
		if hi := sv.insts[v]; hi != nil {
			if i, ok := hi.xIndex(u); ok {
				hi.d.ZeroWeight(i)
			}
			improved = v
		}
	} else {
		sv.s.SetPull(e)
		if hi := sv.insts[u]; hi != nil {
			if j, ok := hi.yIndex(v); ok {
				hi.d.ZeroWeight(j)
			}
			improved = u
		}
	}
	sv.coverEdge(e)
	if improved >= 0 && sv.q.Contains(int(improved)) {
		// Exhausted hubs (no longer queued) are never resurrected: their
		// element set only shrinks, so a hub with nothing coverable never
		// regains value.
		sv.q.Remove(int(improved))
		sv.reEval(improved)
	}
}

// commitHub applies the oracle's choice for the fresh hub w: pushes X→w,
// pulls w→Y, covers the live cross-elements inside the selected subgraph,
// and removes every newly covered element from the ground set. Coverage
// comes from the same materialized elements the oracle counted, so the
// committed coverage equals the claimed newlyCovered exactly. The
// committed hub's weights were zeroed (its ratio may have improved), so
// it is re-evaluated immediately and re-queued if it still covers
// anything.
func (sv *solver) commitHub(w graph.NodeID) {
	hi := sv.ensureInst(w)
	ev := sv.evals[w] // held here: coverEdge below marks w itself stale
	members := ev.Members
	if cap(sv.memb) < hi.d.N() {
		sv.memb = make([]bool, hi.d.N())
	}
	memb := sv.memb[:hi.d.N()]
	for _, v := range members {
		memb[v] = true
	}
	hub := hi.hubIdx()
	// Pay the support costs first: pushes for selected producers, pulls
	// for selected consumers. Paid supports are weightless in every later
	// evaluation of this instance.
	for _, v := range members {
		switch {
		case v < int32(hi.nx):
			sv.s.SetPush(hi.xIDs[v])
			hi.d.ZeroWeight(int(v))
		case v < hub:
			sv.s.SetPull(hi.yLo + graph.EdgeID(int(v)-hi.nx))
			hi.d.ZeroWeight(int(v))
		}
	}
	// Cover every live element inside the selected subgraph: support
	// elements are served by their own push/pull, cross-elements by
	// piggybacking through w. Each member's incident edges are visited
	// from their first endpoint only, so every element is handled once.
	// Instance edges run producer → hub, hub → consumer or producer →
	// consumer, so the endpoints name each element's hybrid cost without a
	// graph lookup; the commit saves their sum less the weight it paid.
	covered, direct := 0, 0.0
	for _, v := range members {
		for _, ei := range hi.d.IncidentEdges(int(v)) {
			a, b := hi.d.Edge(int(ei))
			if a != v || !memb[b] || !hi.d.EdgeAlive(int(ei)) {
				continue
			}
			e := hi.gid[ei]
			src, dst := w, w
			if a != hub {
				src = hi.xs[a]
			}
			if b != hub {
				dst = hi.ys[int(b)-hi.nx]
			}
			if a != hub && b != hub {
				sv.s.SetCovered(e, w)
			}
			direct += baseline.EdgeCost(sv.r, src, dst)
			sv.coverEdge(e)
			covered++
		}
	}
	sv.saved += direct - ev.Weight
	for _, v := range members {
		memb[v] = false
	}
	if commitObserver != nil {
		commitObserver(w, ev.EdgeCnt, covered)
	}
	// The commit zeroed the members' weights and removed the live elements
	// among them, and nothing else in this instance: Replay's precondition.
	res := hi.d.Replay(densest.Result(ev), &sv.sc.dsc)
	if replayObserver != nil {
		replayObserver(w, res, hi.d.Solve(nil))
	}
	sv.requeue(w, usable(hi, res))
}

// reEval re-runs the oracle for a hub that is not currently queued.
func (sv *solver) reEval(w graph.NodeID) {
	sv.requeue(w, evalHub(sv.ensureInst(w), &sv.sc))
}

// requeue records ev as the unqueued hub w's oracle output and re-inserts
// w when it still covers something; otherwise w is exhausted and stays
// out of the queue for good (the rule documented on commitSingleton).
func (sv *solver) requeue(w graph.NodeID, ev hubEval) {
	sv.evals[w] = ev
	if ev.Members != nil {
		sv.q.Push(int(w), ev.ratio())
	}
}

// hubEval is a usable oracle output on a hub instance: Members are the
// selected instance-local vertex ids, hub vertex included; EdgeCnt > 0 the
// live elements inside the selection, all newly covered by a commit;
// Weight its cost Σ unpaid rp(x) + Σ unpaid rc(y). The zero value (nil
// Members) stands for "nothing usable".
type hubEval densest.Result

func (h hubEval) ratio() float64 { return h.Weight / float64(h.EdgeCnt) }

// evalHub runs the oracle over the hub's live sub-instance; zero when
// there is no instance or nothing usable in it.
func evalHub(hi *hubInstance, sc *scratch) hubEval {
	if hi == nil || hi.d.AliveEdges() == 0 {
		return hubEval{}
	}
	return usable(hi, hi.d.Solve(&sc.dsc))
}

// usable admits an oracle selection as a greedy candidate, or returns
// zero: it must cover something, retain the hub vertex (support
// pushes/pulls need the hub; it is weightless, so keeping it never hurts)
// and at least one producer or consumer.
func usable(hi *hubInstance, res densest.Result) hubEval {
	if res.EdgeCnt == 0 {
		return hubEval{}
	}
	hub := hi.hubIdx()
	hubIn := false
	for _, v := range res.Members {
		if v == hub {
			hubIn = true
			break
		}
	}
	if !hubIn || len(res.Members) < 2 {
		return hubEval{}
	}
	return hubEval(res)
}

// scratch holds one goroutine's reusable buffers: yMark/yPos form a
// generation-stamped index from node id to the hub instance's Y-side
// vertex (a per-build map dominated profiles); weight/edges/gids back
// instance materialization, dsc is the peel arena: a steady-state
// evaluation allocates only its result slice.
type scratch struct {
	yMark  []int64
	yPos   []int32
	gen    int64
	weight []float64
	edges  [][2]int32
	gids   []graph.EdgeID
	dsc    densest.Scratch
}

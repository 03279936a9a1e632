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
// an overall O(ln n) approximation (Theorem 4).
//
// The oracle is incremental: a hub-graph instance is materialized (CSR
// adjacency + weights, capped at Config.MaxCrossEdges cross-edges) into
// a densest.Decremental, and a greedy commit only removes the covered
// elements from the resident instances that actually contain them (via
// an inverted edge → (hub, element) index) and zeroes the support
// weights it paid. Re-evaluating a hub is then a peel of the live, unpaid
// part of its instance — no instance rebuild, no graph adjacency scans,
// no visit to covered elements (ensureInst compacts an instance's
// adjacency once half of it is dead) or to paid supports — and a hub
// untouched by a commit keeps its oracle output with no work at all.
// Because coverage is committed from the same materialized elements the
// oracle counted, the claimed newlyCovered always equals the coverage
// the commit performs, including when MaxCrossEdges truncates the
// instance.
//
// Instances live in a generational store (instStore) that may spill them
// under Config.InstanceBudget: an instance's live state is a pure
// function of the shared solve state — an element is dead iff its graph
// edge's uncovered bit is clear, a support weight is zero iff the
// matching push/pull flag is set in the schedule — so a spilled instance
// is rebuilt on demand by re-materializing and replaying those two
// facts, and is indistinguishable from one that stayed resident. The
// spill policy therefore cannot change the schedule: budgets only trade
// rebuild work for peak memory.
//
// The paper's Algorithm 1 refreshes the oracle output of every affected
// hub after each selection; we use a batched lazy-greedy variant instead:
// a commit eagerly re-evaluates only the hubs whose ratio may have
// IMPROVED (support weights zeroed — the committed hub itself, or the
// hub paid for by a singleton), while hubs that merely lost elements got
// worse and keep their stale, too-low queue entries until they reach the
// head. A stale head triggers a speculative refresh of the top
// Config.RefreshBatch candidates at once. The committed choice is the
// greedy choice itself: a commit happens only on a fresh head, every stale
// entry is a lower bound and the queue orders by (priority, id), so the
// committed hub is the (true ratio, id) minimum whatever was refreshed.
// The lazy form only avoids recomputing oracles whose turn never comes;
// the width cannot change the schedule (TestRefreshPolicyCannotChangeSchedule).
//
// The hub that has just committed is not re-peeled: its next peel would
// pop the saved prefix of the committed one, and
// densest.Decremental.Replay walks that prefix instead (DESIGN.md §14).
//
// Oracle evaluations are independent reads of the solver state, so both
// the initial per-hub pass and every refresh batch fan out across
// Config.Workers goroutines. Which candidates get refreshed is decided by
// queue state alone and cannot change which hub commits (ties break
// toward the lowest hub id), so the schedule is byte-identical for every
// worker count.
package chitchat

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"piggyback/internal/baseline"
	"piggyback/internal/bitset"
	"piggyback/internal/core"
	"piggyback/internal/densest"
	"piggyback/internal/graph"
	"piggyback/internal/pq"
	"piggyback/internal/workload"
)

// Config tunes CHITCHAT. The zero value uses the defaults.
type Config struct {
	// MaxCrossEdges bounds the number of cross-edges materialized per
	// hub-graph instance, mirroring the bound b of §3.2/§4.2. 0 means
	// DefaultMaxCrossEdges. The bound is applied once, when the instance
	// is materialized; both the oracle's coverage claim and the committed
	// coverage are computed from the same materialized element set, so
	// they always agree.
	MaxCrossEdges int
	// ExactOracle replaces the peeling oracle with brute-force subset
	// enumeration (instances up to 24 nodes; larger hub-graphs fall back
	// to peeling). Only sensible on tiny graphs; used by ablation benches.
	ExactOracle bool
	// Workers is the parallelism degree for oracle evaluation; 0 means
	// GOMAXPROCS. The resulting schedule is identical for every worker
	// count: workers only change who evaluates an oracle, never which
	// candidates are refreshed or chosen.
	Workers int
	// RefreshBatch is how many stale hub candidates at the head of the
	// queue are re-evaluated together when the head turns out stale; 0
	// means DefaultRefreshBatch. It moves oracle work only: the committed
	// hub is always the (true ratio, id) minimum (see the package
	// comment), so every width yields the same schedule at every worker
	// count.
	RefreshBatch int
	// InstanceBudget bounds the total materialized hub-instance elements
	// (support + cross edges) resident at once. 0 means unlimited: every
	// instance is built once during initialization and stays resident for
	// the whole solve — the fastest mode, with peak memory proportional
	// to the total instance mass. A finite budget makes the store
	// generational: instances untouched for a full generation are
	// spilled (their memory released) and rebuilt on demand by replaying
	// the uncovered set and the schedule's paid supports. Rebuilding
	// reproduces the instance exactly, so the schedule is byte-identical
	// for every budget; only time and peak memory change. A single
	// instance larger than the budget is still materialized whole.
	InstanceBudget int
	// MemberCacheCap bounds how many oracle member lists are retained
	// between evaluation and commit; 0 means DefaultMemberCacheCap.
	// Priorities live in the queue; the member slices — the O(|S|)
	// payload that used to be retained for every hub — live in a
	// fixed-size ring. A commit
	// whose members were evicted re-derives them with one deterministic
	// re-peel of the (unchanged) instance, so the cap trades memory for
	// re-peels, never correctness.
	MemberCacheCap int
	// OnProgress, when non-nil, streams a Progress snapshot after every
	// greedy commit. The callback runs on the solve goroutine; it must
	// not mutate solver inputs and should return quickly.
	OnProgress func(Progress)
}

// Progress is the solve-progress snapshot streamed to Config.OnProgress
// after each greedy commit.
type Progress struct {
	Commits    int // greedy commits so far (hubs + singletons)
	HubCommits int // hub commits among them
	Covered    int // ground-set edges served so far
	Remaining  int // ground-set edges still unserved
}

// DefaultMaxCrossEdges matches the bound used for the Twitter runs in §4.2.
const DefaultMaxCrossEdges = 100000

// DefaultRefreshBatch is the speculative refresh width tuned on the
// dev-container profiles (ROADMAP tracks re-tuning on real multi-core
// hardware).
const DefaultRefreshBatch = 16

// DefaultMemberCacheCap is the member-list ring size.
const DefaultMemberCacheCap = 128

// cacheStats summarizes the member cache's behavior over one solve:
// Stores counts every member list that entered the ring (one per oracle
// evaluation kept), HighWater the most lists simultaneously resident,
// Retained the member entries still resident at the end. Stores greatly
// exceeding Capacity with Retained lists capped at Capacity is what
// "resident memory is O(active hubs)" means operationally.
type cacheStats struct {
	Capacity      int
	HighWater     int
	Stores        int
	RetainedLists int
	RetainedInts  int
}

// storeStats summarizes the instance store's behavior over one solve:
// how many instances were materialized (Builds counts every
// materialization; Rebuilds, a subset, the re-materializations of
// spilled instances), how many were evicted, and the peak/final resident
// element mass. Under a finite
// budget, PeakElems staying near the budget while Builds+Rebuilds exceeds
// the hub count is what "peak memory is O(budget), not O(total instance
// mass)" means operationally.
type storeStats struct {
	Budget     int
	Builds     int
	Rebuilds   int
	Evictions  int
	PeakElems  int
	FinalElems int
}

// Test hooks; nil outside tests. commitObserver reports, after every hub
// commit, the coverage the oracle claimed against the coverage the commit
// actually performed, replayObserver every post-commit replay next to a
// fresh peel of the same instance. cacheObserver reports member-cache
// statistics and storeObserver instance-store statistics at the end.
var (
	commitObserver func(w graph.NodeID, claimed, covered int)
	replayObserver func(w graph.NodeID, replayed, peeled densest.Result)
	cacheObserver  func(cacheStats)
	storeObserver  func(storeStats)
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
	if cfg.MaxCrossEdges == 0 {
		cfg.MaxCrossEdges = DefaultMaxCrossEdges
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.RefreshBatch <= 0 {
		cfg.RefreshBatch = DefaultRefreshBatch
	}
	if cfg.MemberCacheCap <= 0 {
		cfg.MemberCacheCap = DefaultMemberCacheCap
	}
	n := g.NumNodes()
	m := g.NumEdges()
	s := core.NewSchedule(g)
	if m == 0 {
		return s, nil
	}

	workers := cfg.Workers
	if workers > n {
		workers = n
	}
	sv := &solver{
		g: g, r: r, cfg: cfg, s: s,
		n:         n,
		uncovered: bitset.New(m),
		remaining: m,
		q:         pq.New(n + m),
		scs:       make([]*scratch, workers),
		inv:       make([][]invEntry, m),
		hasInst:   make([]bool, n),
		fresh:     make([]bool, n),
		slot:      make([]int32, n),
	}
	sv.uncovered.SetAll()
	sv.mcache.init(cfg.MemberCacheCap)
	sv.store.init(n, cfg.InstanceBudget)
	for i := range sv.scs {
		sv.scs[i] = &scratch{yMark: make([]int64, n), yPos: make([]int32, n)}
	}
	for w := 0; w < n; w++ {
		uid := graph.NodeID(w)
		sv.hasInst[w] = len(g.InNeighbors(uid)) > 0 && len(g.OutNeighbors(uid)) > 0
	}

	// Singleton candidates never change ratio: c*(e) per single element.
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		sv.q.Push(n+int(e), baseline.EdgeCost(r, u, v))
		return true
	})

	// Seed the queue: evaluate every hub instance against the full ground
	// set — the embarrassingly parallel bulk of the solve. Builds and
	// evaluations fan out per chunk; adoption into the store (and the
	// inverted index) is serial in hub order, and under a finite budget
	// the store rotates as chunks register, so only the freshest ~budget
	// elements of instance mass stay resident — peak memory during
	// initialization is O(budget + chunk), not O(total instance mass).
	chunk := 4 * workers
	if chunk < 32 {
		chunk = 32
	}
	tmp := make([]*hubInstance, chunk)
	initRes := make([]hubEval, chunk)
	initOK := make([]bool, chunk)
	ids := make([]int32, 0, n)
	prios := make([]float64, 0, n)
	for lo := 0; lo < n; lo += chunk {
		k := chunk
		if lo+k > n {
			k = n - lo
		}
		sv.forEach(k, func(i int, sc *scratch) {
			w := graph.NodeID(lo + i)
			tmp[i] = buildHubInstance(g, r, w, cfg, sc)
			initRes[i], initOK[i] = evalHub(tmp[i], cfg, sc)
		})
		for i := 0; i < k; i++ {
			w := graph.NodeID(lo + i)
			if tmp[i] == nil {
				continue
			}
			if !initOK[i] {
				// Unusable from the start (oracle keeps nothing): the hub
				// never enters the queue, so its instance is never needed.
				tmp[i] = nil
				continue
			}
			sv.adoptInst(w, tmp[i])
			sv.setFresh(w, initRes[i])
			ids = append(ids, int32(w))
			prios = append(prios, initRes[i].ratio())
			tmp[i] = nil
		}
	}
	sv.q.PushBatch(ids, prios)

	var cause error
	for sv.remaining > 0 && sv.q.Len() > 0 {
		if err := ctx.Err(); err != nil {
			// Canceled mid-solve: stop here; the Finalize below serves
			// everything still uncovered at the hybrid cost, so the
			// partial greedy prefix is still a valid schedule.
			cause = err
			break
		}
		id, _ := sv.q.Min()
		if id >= n {
			// Singleton edge: ratio never changes; skip if already covered.
			sv.q.PopMin()
			e := graph.EdgeID(id - n)
			if !sv.uncovered.Test(int(e)) {
				continue
			}
			sv.commitSingleton(e)
			sv.noteCommit(false)
			continue
		}
		w := graph.NodeID(id)
		if sv.fresh[w] {
			// The head's oracle output was computed against the current
			// state of its instance, which no commit has touched since:
			// it is the greedy choice. Commit it.
			sv.q.PopMin()
			sv.commitHub(w)
			sv.noteCommit(true)
			continue
		}
		sv.refreshHead()
	}
	if cacheObserver != nil {
		st := cacheStats{
			Capacity:  cfg.MemberCacheCap,
			HighWater: sv.mcache.highWater,
			Stores:    sv.mcache.stores,
		}
		for _, ev := range sv.mcache.evals {
			if ev.Members != nil {
				st.RetainedLists++
				st.RetainedInts += len(ev.Members)
			}
		}
		cacheObserver(st)
	}
	if storeObserver != nil {
		storeObserver(storeStats{
			Budget:     cfg.InstanceBudget,
			Builds:     sv.store.builds,
			Rebuilds:   sv.store.rebuilds,
			Evictions:  sv.store.evictions,
			PeakElems:  sv.store.peak,
			FinalElems: sv.store.resident,
		})
	}
	// Serve anything left directly: on the normal path this is defensive
	// (singletons cover every edge); on the cancellation path it is the
	// hybrid-rule finalization that makes the partial solve valid.
	s.Finalize(r)
	return s, cause
}

// SolveInduced is the restricted entry point for localized
// re-optimization: it solves the extracted region sub.G under the global
// rates projected through the subgraph's node mapping, returning a patch
// schedule over sub.G ready for core.ApplyPatch. CHITCHAT's quality
// guarantee (Theorem 4) applies to the region in isolation; the splice
// validity is argued at core.ApplyPatch.
func SolveInduced(sub *graph.Subgraph, r *workload.Rates, cfg Config) *core.Schedule {
	s, _ := SolveInducedCtx(context.Background(), sub, r, cfg)
	return s
}

// SolveInducedCtx is SolveInduced with the cancellation contract of
// SolveCtx: the returned patch is always valid over sub.G, and a non-nil
// error means the greedy ran only partially before the context fired.
func SolveInducedCtx(ctx context.Context, sub *graph.Subgraph, r *workload.Rates, cfg Config) (*core.Schedule, error) {
	return SolveCtx(ctx, sub.G, r.Project(sub.Global), cfg)
}

// noteCommit bumps the progress counters after a greedy commit and
// streams a snapshot to Config.OnProgress when set.
func (sv *solver) noteCommit(hub bool) {
	sv.commits++
	if hub {
		sv.hubCommits++
	}
	if sv.cfg.OnProgress != nil {
		sv.cfg.OnProgress(Progress{
			Commits:    sv.commits,
			HubCommits: sv.hubCommits,
			Covered:    sv.g.NumEdges() - sv.remaining,
			Remaining:  sv.remaining,
		})
	}
}

// solver carries the shared solve state. Oracle evaluations (evalHub) are
// pure reads of the materialized instances plus a per-worker scratch, so
// they run concurrently; all queue, schedule, and instance mutation stays
// on the caller goroutine.
type solver struct {
	g   *graph.Graph
	r   *workload.Rates
	cfg Config
	s   *core.Schedule

	n         int
	uncovered *bitset.Set
	remaining int
	q         *pq.IndexedMin
	scs       []*scratch // one per worker

	// store holds the resident hub instances under the element budget;
	// hasInst[w] records whether hub w has an instance at all (producers
	// and consumers both nonempty) — a graph property, independent of
	// residency. inv[e] lists the (hub, element) pairs of every RESIDENT
	// instance that materialized the still-uncovered graph edge e, so
	// covering an edge removes exactly the affected elements; spilled
	// instances learn about coverage when they are rebuilt (adoptInst
	// replays the uncovered set). The bucket is dropped whole once e is
	// covered.
	store   instStore
	hasInst []bool
	inv     [][]invEntry

	// Freshness: fresh[w] means hub w's latest oracle output (in mcache
	// slot slot[w] until overwritten) matches the CURRENT state of
	// instance w — no commit removed one of its elements or zeroed one of
	// its weights since the evaluation. Stale entries in the queue are
	// lower bounds (losing elements only worsens a hub), so lazy greedy
	// re-evaluates them when they reach the head; hubs whose weights were
	// zeroed may have improved and are re-evaluated eagerly at commit.
	fresh  []bool
	slot   []int32
	mcache memberCache

	// Progress counters for Config.OnProgress.
	commits    int
	hubCommits int

	memb     []bool // member marks, sized to the largest instance
	batchIDs []graph.NodeID
	batchRes []hubEval
	batchOK  []bool
	insIDs   []int32
	insPrios []float64
}

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

// xIndex returns the instance vertex of producer x (position in the
// sorted xs), if present.
func (hi *hubInstance) xIndex(x graph.NodeID) (int, bool) {
	i := sort.Search(len(hi.xs), func(i int) bool { return hi.xs[i] >= x })
	if i < len(hi.xs) && hi.xs[i] == x {
		return i, true
	}
	return 0, false
}

// yIndex returns the instance vertex of consumer y, if present.
func (hi *hubInstance) yIndex(y graph.NodeID) (int, bool) {
	j := sort.Search(len(hi.ys), func(j int) bool { return hi.ys[j] >= y })
	if j < len(hi.ys) && hi.ys[j] == y {
		return hi.nx + j, true
	}
	return 0, false
}

// buildHubInstance materializes the maximal hub-graph centered on w — X =
// producers of w, Y = consumers of w, elements restricted to the first
// MaxCrossEdges cross-edges in (producer, adjacency) order — into a
// decremental oracle. It runs before any commit, so every edge is an
// element and every support weight is unpaid. It only reads the graph and
// writes sc, so concurrent calls with distinct scratches are safe.
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
	crossBudget := cfg.MaxCrossEdges
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

// invEntry locates one materialized element of a resident hub instance:
// element elem of instance hub is graph edge e for every entry in inv[e].
type invEntry struct {
	hub  int32
	elem int32
}

// instStore is the generational spill store for hub instances. All
// mutation happens on the solve goroutine; the parallel oracle phases
// only read resident instances (which pinning keeps resident). Two
// generations are tracked: instances touched in the current generation
// and instances from the previous one. When the current generation's
// element mass reaches half the budget the store rotates — everything
// still stranded in the previous generation is evicted — so at most
// ~budget elements stay resident and eviction bookkeeping is O(1) per
// touch. With budget 0 rotation never fires and every instance is
// permanent, reproducing the fully-resident behavior.
type instStore struct {
	budget   int
	insts    []*hubInstance
	genOf    []int64 // generation the hub was last touched in
	curGen   int64
	curHubs  []graph.NodeID // hubs touched in the current generation
	prevHubs []graph.NodeID // hubs from the previous generation
	curElems int            // element mass touched this generation
	pinOf    []int64        // pinOf[w] == pinGen pins w across a rotation
	pinGen   int64

	resident  int // resident element mass
	peak      int
	builds    int
	rebuilds  int
	evictions int
}

func (st *instStore) init(n, budget int) {
	st.budget = budget
	st.insts = make([]*hubInstance, n)
	st.genOf = make([]int64, n)
	st.pinOf = make([]int64, n)
	st.curGen = 1
	st.pinGen = 1
}

// ensureInst returns hub w's instance, rebuilding it if it was spilled
// (or never usable enough to keep — both look the same to the store) and
// touching it into the current generation. Returns nil only for hubs
// with no instance at all. Must run on the solve goroutine, outside any
// parallel evaluation phase and any IncidentEdges iteration: every oracle
// evaluation is preceded by one ensureInst, so this is the quiescent
// point where the instance's adjacency is compacted (densest.Compact is
// a no-op until half its represented elements are dead).
func (sv *solver) ensureInst(w graph.NodeID) *hubInstance {
	if !sv.hasInst[w] {
		return nil
	}
	hi := sv.store.insts[w]
	if hi == nil {
		hi = buildHubInstance(sv.g, sv.r, w, sv.cfg, sv.scs[0])
		sv.store.rebuilds++
		sv.adoptInst(w, hi)
	} else {
		sv.touchInst(w, len(hi.gid))
	}
	hi.d.Compact()
	return hi
}

// adoptInst takes ownership of a freshly built instance for hub w:
// replays the solve history recorded in the shared state (elements whose
// graph edge is already covered are removed; supports whose push/pull is
// already scheduled are weightless — see the package comment for why
// this replay reproduces the instance exactly), registers the live
// elements in the inverted index, and touches w into the current
// generation. The replay is a no-op for the initial builds, where
// nothing is covered or paid yet.
func (sv *solver) adoptInst(w graph.NodeID, hi *hubInstance) {
	st := &sv.store
	for ei, e := range hi.gid {
		if sv.uncovered.Test(int(e)) {
			sv.inv[e] = append(sv.inv[e], invEntry{int32(w), int32(ei)})
		} else {
			hi.d.RemoveEdge(ei)
		}
	}
	for i := range hi.xs {
		if sv.s.IsPush(hi.xIDs[i]) {
			hi.d.ZeroWeight(i)
		}
	}
	for j := range hi.ys {
		if sv.s.IsPull(hi.yLo + graph.EdgeID(j)) {
			hi.d.ZeroWeight(hi.nx + j)
		}
	}
	st.insts[w] = hi
	st.resident += len(hi.gid)
	if st.resident > st.peak {
		st.peak = st.resident
	}
	st.builds++
	sv.touchInst(w, len(hi.gid))
}

// touchInst stamps hub w into the current store generation, rotating the
// store when the generation fills up.
func (sv *solver) touchInst(w graph.NodeID, elems int) {
	st := &sv.store
	if st.genOf[w] == st.curGen {
		return
	}
	st.genOf[w] = st.curGen
	st.curHubs = append(st.curHubs, w)
	st.curElems += elems
	if st.budget > 0 && st.curElems >= st.budget/2 {
		sv.rotateStore()
	}
}

// rotateStore starts a new generation: instances from the previous
// generation that were not touched since are evicted (pinned ones roll
// forward instead), the current generation becomes the previous one.
func (sv *solver) rotateStore() {
	st := &sv.store
	old := st.prevHubs
	carried := old[:0]
	for _, w := range old {
		if st.genOf[w] == st.curGen || st.insts[w] == nil {
			continue // re-touched since (tracked in curHubs) or already gone
		}
		if st.pinOf[w] == st.pinGen {
			carried = append(carried, w)
			continue
		}
		sv.evictInst(w)
	}
	st.prevHubs = st.curHubs
	st.curGen++
	st.curElems = 0
	st.curHubs = carried // pinned survivors open the new generation
	for _, w := range carried {
		st.genOf[w] = st.curGen
		st.curElems += len(st.insts[w].gid)
	}
}

// evictInst spills hub w's instance: its live elements leave the
// inverted index (swap-remove from each bucket; bucket order is
// irrelevant — entries only fan out independent RemoveEdge calls) and
// its memory is released. The hub's cached evaluation goes stale — a
// spilled instance cannot observe later coverage, so it must be
// re-evaluated (after a rebuild) before it may be committed. Eviction
// never changes the instance's logical state, so the queue entry remains
// the exact current ratio — a valid lower bound.
func (sv *solver) evictInst(w graph.NodeID) {
	st := &sv.store
	hi := st.insts[w]
	for ei, e := range hi.gid {
		if !sv.uncovered.Test(int(e)) {
			continue
		}
		bucket := sv.inv[e]
		for t, en := range bucket {
			if en.hub == int32(w) && en.elem == int32(ei) {
				bucket[t] = bucket[len(bucket)-1]
				sv.inv[e] = bucket[:len(bucket)-1]
				break
			}
		}
	}
	st.insts[w] = nil
	st.resident -= len(hi.gid)
	st.evictions++
	sv.fresh[w] = false
}

// forEach runs fn(i, scratch) for i in [0, k), fanning out across the
// solver's workers. Each invocation gets a worker-private scratch; fn must
// not touch shared mutable state. Results land in caller-provided arrays
// indexed by i, so the outcome is independent of scheduling order.
func (sv *solver) forEach(k int, fn func(i int, sc *scratch)) {
	nw := len(sv.scs)
	if nw > k {
		nw = k
	}
	if nw <= 1 {
		for i := 0; i < k; i++ {
			fn(i, sv.scs[0])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for wk := 0; wk < nw; wk++ {
		sc := sv.scs[wk]
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= k {
					return
				}
				fn(i, sc)
			}
		}()
	}
	wg.Wait()
}

// coverEdge removes graph edge e from the uncovered ground set and, via
// the inverted index, deletes its element from every RESIDENT instance
// that materialized it (spilled instances replay the uncovered set when
// rebuilt). Those hubs' cached evaluations may now overstate coverage,
// so they go stale; their queue entries remain valid lower bounds
// (element loss only worsens a ratio) until lazily refreshed.
func (sv *solver) coverEdge(e graph.EdgeID) {
	if !sv.uncovered.Test(int(e)) {
		return
	}
	sv.uncovered.Clear(int(e))
	sv.remaining--
	for _, en := range sv.inv[e] {
		if sv.store.insts[en.hub].d.RemoveEdge(int(en.elem)) {
			sv.fresh[en.hub] = false
		}
	}
	sv.inv[e] = nil
}

// commitSingleton serves edge e directly at the hybrid cost. Paying for
// the push (or pull) zeroes the matching support weight in the one hub
// instance that uses it, which can only IMPROVE that hub's ratio — so it
// is re-evaluated eagerly to keep every queue entry a lower bound. The
// affected hub is determined by graph structure alone (the edge is
// always a support of its endpoint's maximal hub-graph when that hub has
// an instance), so the eager refresh fires identically whether the
// instance is resident — weight zeroed in place — or spilled — the
// zeroing is replayed from the schedule flag on rebuild.
func (sv *solver) commitSingleton(e graph.EdgeID) {
	u := sv.g.EdgeSource(e)
	v := sv.g.EdgeTarget(e)
	improved := graph.NodeID(-1)
	if sv.r.Prod[u] <= sv.r.Cons[v] {
		sv.s.SetPush(e)
		if sv.hasInst[v] {
			if hi := sv.store.insts[v]; hi != nil {
				if i, ok := hi.xIndex(u); ok {
					hi.d.ZeroWeight(i)
				}
			}
			improved = v
		}
	} else {
		sv.s.SetPull(e)
		if sv.hasInst[u] {
			if hi := sv.store.insts[u]; hi != nil {
				if j, ok := hi.yIndex(v); ok {
					hi.d.ZeroWeight(j)
				}
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

// commitHub applies the oracle's choice for hub w: pushes X→w, pulls
// w→Y, covers the live cross-elements inside the selected subgraph, and
// removes every newly covered element from the ground set. Coverage
// comes from the same materialized elements the oracle counted, so the
// committed coverage equals the claimed newlyCovered exactly. The
// committed hub's weights were zeroed (its ratio may have improved), so
// it is re-evaluated immediately and re-queued if it still covers
// anything.
func (sv *solver) commitHub(w graph.NodeID) {
	// A committable hub is fresh, and fresh implies resident (eviction
	// clears freshness), so this is a touch; ensureInst keeps the
	// invariant local all the same.
	hi := sv.ensureInst(w)
	ev, ok := sv.cachedEval(w)
	if !ok {
		// Evicted from the bounded member cache. The instance is unchanged
		// since the fresh evaluation, so one re-peel reproduces it.
		if ev, ok = evalHub(hi, sv.cfg, sv.scs[0]); !ok {
			return // cannot happen for a fresh queued hub; stay defensive
		}
	}
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
	claimed := ev.EdgeCnt
	covered := 0
	for _, v := range members {
		for _, ei := range hi.d.IncidentEdges(int(v)) {
			a, b := hi.d.Edge(int(ei))
			if a != v || !memb[b] || !hi.d.EdgeAlive(int(ei)) {
				continue
			}
			e := hi.gid[ei]
			if a != hub && b != hub {
				sv.s.SetCovered(e, w)
			}
			sv.coverEdge(e)
			covered++
		}
	}
	for _, v := range members {
		memb[v] = false
	}
	if commitObserver != nil {
		commitObserver(w, claimed, covered)
	}
	if sv.cfg.ExactOracle {
		sv.reEval(w) // a brute-force selection has no peel to replay
		return
	}
	// The commit zeroed the members' weights and removed the live elements
	// among them, and nothing else in this instance: Replay's precondition.
	res := hi.d.Replay(densest.Result(ev), &sv.scs[0].dsc)
	if replayObserver != nil {
		replayObserver(w, res, hi.d.Solve(nil))
	}
	ev, ok = usable(hi, res)
	sv.requeue(w, ev, ok)
}

// reEval re-runs the oracle for a hub that is not currently queued.
func (sv *solver) reEval(w graph.NodeID) {
	ev, ok := evalHub(sv.ensureInst(w), sv.cfg, sv.scs[0])
	sv.requeue(w, ev, ok)
}

// requeue re-inserts the unqueued hub w under its new oracle output when
// it still covers something; otherwise it is exhausted and stays out.
func (sv *solver) requeue(w graph.NodeID, ev hubEval, ok bool) {
	if !ok {
		sv.fresh[w] = false
		return
	}
	sv.setFresh(w, ev)
	sv.q.Push(int(w), ev.ratio())
}

// refreshHead handles a stale hub at the head of the queue. Classic lazy
// greedy first: refresh the head alone — stale entries are lower bounds
// (a hub only gets worse as elements it covers disappear), so if the
// fresh ratio still does not exceed the next queued priority, the head
// remains the greedy choice and a single oracle call decides the commit.
// Only when the head loses its slot do we speculatively refresh the next
// Config.RefreshBatch stale candidates in one parallel round: the head region is
// churning, so those evaluations are likely needed next and independent.
func (sv *solver) refreshHead() {
	id, _ := sv.q.Min() // caller established: a hub with a stale entry
	sv.q.PopMin()
	w := graph.NodeID(id)
	sv.reEval(w)
	if !sv.fresh[w] {
		return // exhausted hub; it never regains value
	}
	if sv.q.Len() == 1 {
		return // sole candidate; the main loop commits it
	}
	if head, _ := sv.q.Min(); head == id {
		return // still the minimum; the main loop commits it
	}
	batch := sv.batchIDs[:0]
	for len(batch) < sv.cfg.RefreshBatch && sv.q.Len() > 0 {
		nid, _ := sv.q.Min()
		if nid >= sv.n || sv.fresh[nid] {
			break // fresh hub or singleton: the main loop handles it
		}
		sv.q.PopMin()
		batch = append(batch, graph.NodeID(nid))
	}
	sv.batchIDs = batch
	sv.evalBatch(batch)
}

// evalBatch evaluates the given hubs (already removed from the queue)
// concurrently, then re-inserts those that still cover something, marking
// them fresh. Hubs with nothing left stay out of the queue for good — the
// exhaustion rule documented on commitSingleton.
func (sv *solver) evalBatch(batch []graph.NodeID) {
	if len(batch) == 0 {
		return
	}
	if cap(sv.batchRes) < len(batch) {
		sv.batchRes = make([]hubEval, len(batch))
		sv.batchOK = make([]bool, len(batch))
	}
	res := sv.batchRes[:len(batch)]
	ok := sv.batchOK[:len(batch)]
	// Residency changes (materialize, evict) happen here on the solve
	// goroutine; the parallel phase below only reads. Pinning keeps a
	// store rotation triggered by a later ensure from evicting an
	// earlier batch member before its evaluation runs.
	sv.store.pinGen++
	for _, w := range batch {
		sv.store.pinOf[w] = sv.store.pinGen
	}
	for _, w := range batch {
		sv.ensureInst(w)
	}
	sv.forEach(len(batch), func(i int, sc *scratch) {
		res[i], ok[i] = evalHub(sv.store.insts[batch[i]], sv.cfg, sc)
	})
	sv.store.pinGen++ // unpin
	ids := sv.insIDs[:0]
	prios := sv.insPrios[:0]
	for i, w := range batch {
		if ok[i] {
			sv.setFresh(w, res[i])
			ids = append(ids, int32(w))
			prios = append(prios, res[i].ratio())
		} else {
			sv.fresh[w] = false
		}
	}
	sv.q.PushBatch(ids, prios)
	sv.insIDs = ids
	sv.insPrios = prios
}

// setFresh records ev as hub w's current oracle output, in the bounded
// cache.
func (sv *solver) setFresh(w graph.NodeID, ev hubEval) {
	sv.fresh[w] = true
	sv.slot[w] = sv.mcache.store(w, ev)
}

// cachedEval returns hub w's fresh oracle output if it is still resident
// in the bounded cache.
func (sv *solver) cachedEval(w graph.NodeID) (hubEval, bool) {
	if slot := sv.slot[w]; sv.mcache.hubs[slot] == w {
		return sv.mcache.evals[slot], true
	}
	return hubEval{}, false
}

// memberCache is a fixed-size ring of oracle outputs (the member list a
// commit applies and the peel prefix its replay restarts from, one
// allocation). It bounds the memory retained between evaluation and
// commit to O(Config.MemberCacheCap) slices regardless of graph size;
// evicted entries are re-derived by re-peeling the unchanged instance.
type memberCache struct {
	hubs      []graph.NodeID
	evals     []hubEval
	next      int
	occupied  int
	highWater int
	stores    int
}

func (mc *memberCache) init(cap int) {
	mc.hubs = make([]graph.NodeID, cap)
	for i := range mc.hubs {
		mc.hubs[i] = -1
	}
	mc.evals = make([]hubEval, cap)
}

// store places w's oracle output in the next ring slot, evicting
// whichever hub owned the slot before (its lookup then finds w there,
// not itself), and returns the slot.
func (mc *memberCache) store(w graph.NodeID, ev hubEval) int32 {
	mc.stores++
	slot := mc.next
	mc.next++
	if mc.next == len(mc.hubs) {
		mc.next = 0
	}
	if mc.hubs[slot] < 0 {
		mc.occupied++
		if mc.occupied > mc.highWater {
			mc.highWater = mc.occupied
		}
	}
	mc.hubs[slot] = w
	mc.evals[slot] = ev
	return int32(slot)
}

// hubEval is a usable oracle output on a hub instance: Members are the
// selected instance-local vertex ids, hub vertex included; EdgeCnt > 0 the
// live elements inside the selection, all newly covered by a commit;
// Weight its cost Σ unpaid rp(x) + Σ unpaid rc(y).
type hubEval densest.Result

func (h hubEval) ratio() float64 { return h.Weight / float64(h.EdgeCnt) }

// evalHub runs the oracle over the hub's live sub-instance. It only reads
// the instance and writes sc, so concurrent calls with distinct scratches
// are safe.
func evalHub(hi *hubInstance, cfg Config, sc *scratch) (hubEval, bool) {
	if hi == nil || hi.d.AliveEdges() == 0 {
		return hubEval{}, false
	}
	var res densest.Result
	if cfg.ExactOracle && hi.d.N() <= 24 {
		var inst densest.Instance
		inst, sc.liveBuf = hi.d.LiveInstance(sc.liveBuf)
		res = densest.Exact(inst, &sc.dsc)
	} else {
		res = hi.d.Solve(&sc.dsc)
	}
	return usable(hi, res)
}

// usable admits an oracle selection as a greedy candidate: it must cover
// something, retain the hub vertex (support pushes/pulls need the hub; it
// is weightless, so keeping it never hurts) and at least one producer or
// consumer.
func usable(hi *hubInstance, res densest.Result) (hubEval, bool) {
	if res.EdgeCnt == 0 {
		return hubEval{}, false
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
		return hubEval{}, false
	}
	return hubEval(res), true
}

// scratch holds per-worker reusable buffers: yMark/yPos form a
// generation-stamped index from node id to the hub instance's Y-side
// vertex (a per-build map dominated profiles); weight/edges/gids back
// instance materialization, liveBuf the exact-oracle snapshot, and dsc is
// the peel arena, so a steady-state oracle evaluation allocates only its
// small result slice.
type scratch struct {
	yMark   []int64
	yPos    []int32
	gen     int64
	weight  []float64
	edges   [][2]int32
	gids    []graph.EdgeID
	liveBuf [][2]int32
	dsc     densest.Scratch
}

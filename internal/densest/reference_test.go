package densest

import "piggyback/internal/pq"

// referencePeel is the reference implementation of the oracle: the
// straightforward peel with EVERY vertex in a generic indexed heap —
// isolated vertices at priority 0, weightless ones at +Inf — popped until
// the heap is empty, over a freshly built adjacency of inst's edges. It
// shares no code with Decremental.Solve (own adjacency, own queue, own
// loop), so the equivalence tests below can see a kernel bug. Solve's
// contract is to return exactly this function's Members, EdgeCnt and
// Weight on the live sub-instance.
func referencePeel(inst Instance) Result {
	n := inst.N
	if n == 0 {
		return Result{}
	}
	weight := inst.Weight
	deg := make([]int32, n)
	adj := make([][]int32, n) // incident edge indices
	for ei, e := range inst.Edges {
		for _, u := range e {
			deg[u]++
			adj[u] = append(adj[u], int32(ei))
		}
	}
	prio := func(u int) float64 {
		if weight[u] == 0 {
			return inf() // weightless nodes (cost already paid) are peeled last
		}
		return float64(deg[u]) / weight[u]
	}

	q := pq.New(n)
	alive := make([]bool, n)
	edgeAlive := make([]bool, len(inst.Edges))
	for i := range edgeAlive {
		edgeAlive[i] = true
	}
	curWeight := 0.0
	alivePositive := 0 // alive nodes with weight > 0
	for u := 0; u < n; u++ {
		q.Push(u, prio(u))
		alive[u] = true
		curWeight += weight[u]
		if weight[u] > 0 {
			alivePositive++
		}
	}
	curEdges := len(inst.Edges)

	best := Result{EdgeCnt: curEdges, Weight: curWeight}
	bestStep := 0 // number of removals before the best snapshot
	var removalOrder []int32
	for step := 1; q.Len() > 0; step++ {
		u, _ := q.PopMin()
		alive[u] = false
		removalOrder = append(removalOrder, int32(u))
		curWeight -= weight[u]
		if weight[u] > 0 {
			alivePositive--
		}
		// Snap to exact zero once every positive-weight node is gone;
		// accumulated float error must not mask an infinite-density
		// (free-coverage) subgraph.
		if alivePositive == 0 || curWeight < 0 {
			curWeight = 0
		}
		for _, ei := range adj[u] {
			if !edgeAlive[ei] {
				continue
			}
			edgeAlive[ei] = false
			curEdges--
			other := inst.Edges[ei][0]
			if other == int32(u) {
				other = inst.Edges[ei][1]
			}
			if alive[other] {
				deg[other]--
				q.Update(int(other), prio(int(other)))
			}
		}
		if snap := (Result{EdgeCnt: curEdges, Weight: curWeight}); snap.Denser(best) {
			best = snap
			bestStep = step
		}
	}

	// Members: nodes not among the first bestStep removals.
	removed := make([]bool, n)
	for _, u := range removalOrder[:bestStep] {
		removed[u] = true
	}
	best.Members = make([]int32, 0, n-bestStep)
	// Recompute weight exactly from the members: the incremental subtraction
	// above can drift by a few ulps, and callers compare densities exactly.
	best.Weight = 0
	for u := 0; u < n; u++ {
		if !removed[u] {
			best.Members = append(best.Members, int32(u))
			best.Weight += weight[u]
		}
	}
	return best
}

// Package sampling extracts subgraph samples from a large social graph.
//
// Section 4.4 of the paper compares CHITCHAT and PARALLELNOSY on 5M-edge
// samples of the Twitter and Flickr graphs, drawn with two methods that
// preserve different properties: random-walk sampling (preserves
// clustering ratios, may prune hub edges) and breadth-first sampling
// (preserves the degree of the first sampled nodes, keeping hubs intact).
package sampling

import (
	"math/rand"
	"sort"

	"piggyback/internal/graph"
)

// Result is a sampled subgraph plus the mapping back to original node ids.
type Result struct {
	Graph *graph.Graph
	// Original[i] is the id in the source graph of node i; it ascends
	// (graph.Induced's labelling), whatever order the nodes were visited in.
	Original []graph.NodeID
}

// RandomWalk samples nodes by a random walk with restarts on the
// undirected projection of g until the subgraph induced by the visited
// nodes has at least targetEdges edges (or the whole graph is visited),
// then returns that induced subgraph. restartProb 0.15 follows
// Leskovec–Faloutsos.
func RandomWalk(g *graph.Graph, targetEdges int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	if n == 0 {
		return Result{Graph: graph.FromEdges(0, nil)}
	}
	const restartProb = 0.15
	visited := make(map[graph.NodeID]bool, targetEdges/4+16)
	var order []graph.NodeID
	edgeCount := 0
	countNew := func(v graph.NodeID) {
		// Count induced edges incident to v against already-visited nodes.
		for _, u := range g.OutNeighbors(v) {
			if visited[u] {
				edgeCount++
			}
		}
		for _, u := range g.InNeighbors(v) {
			if visited[u] {
				edgeCount++
			}
		}
	}
	start := graph.NodeID(rng.Intn(n))
	cur := start
	stuck := 0
	for edgeCount < targetEdges && len(visited) < n {
		if !visited[cur] {
			countNew(cur)
			visited[cur] = true
			order = append(order, cur)
			stuck = 0
		} else {
			stuck++
		}
		if stuck > 10*n {
			// Disconnected remainder: restart from an unvisited node.
			cur = randomUnvisited(rng, n, visited)
			stuck = 0
			continue
		}
		if rng.Float64() < restartProb {
			cur = start
			continue
		}
		nbrs := undirected(g, cur)
		if len(nbrs) == 0 {
			cur = graph.NodeID(rng.Intn(n))
			continue
		}
		cur = nbrs[rng.Intn(len(nbrs))]
	}
	sub := graph.Induced(g, order)
	return Result{Graph: sub.G, Original: sub.Global}
}

// BFS samples nodes in breadth-first order from a random start (restarting
// from a random unvisited node when a component is exhausted) until the
// induced subgraph reaches targetEdges edges, then returns the induced
// subgraph. The earliest sampled nodes keep their full original degree,
// which preserves hubs.
func BFS(g *graph.Graph, targetEdges int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	if n == 0 {
		return Result{Graph: graph.FromEdges(0, nil)}
	}
	visited := make(map[graph.NodeID]bool, targetEdges/4+16)
	var order []graph.NodeID
	edgeCount := 0
	queue := []graph.NodeID{graph.NodeID(rng.Intn(n))}
	for edgeCount < targetEdges && len(visited) < n {
		if len(queue) == 0 {
			queue = append(queue, randomUnvisited(rng, n, visited))
		}
		v := queue[0]
		queue = queue[1:]
		if visited[v] {
			continue
		}
		for _, u := range g.OutNeighbors(v) {
			if visited[u] {
				edgeCount++
			}
		}
		for _, u := range g.InNeighbors(v) {
			if visited[u] {
				edgeCount++
			}
		}
		visited[v] = true
		order = append(order, v)
		for _, u := range undirected(g, v) {
			if !visited[u] {
				queue = append(queue, u)
			}
		}
	}
	sub := graph.Induced(g, order)
	return Result{Graph: sub.G, Original: sub.Global}
}

// WalkSeeds picks k well-connected, well-spread seed nodes by random-walk
// visit counts — the statistics-free structural placement primitive behind
// locality-aware partitioning (partition.Locality). A restarting random
// walk on the undirected projection visits hubs and their dense
// neighborhoods most often; seeds are then chosen greedily by descending
// visit count (ties toward the lower node id) while skipping direct
// neighbors of already-chosen seeds, so the k seeds land in k different
// dense regions rather than k corners of the same one. When the exclusion
// rule runs out of candidates it is relaxed, so exactly min(k, n) seeds
// are always returned. Deterministic given the seed.
func WalkSeeds(g *graph.Graph, k int, seed int64) []graph.NodeID {
	n := g.NumNodes()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	const restartProb = 0.15
	steps := 64 * k
	if min := 4 * n; steps < min {
		steps = min
	}
	if max := 1 << 20; steps > max {
		steps = max
	}
	visits := make([]int32, n)
	start := graph.NodeID(rng.Intn(n))
	cur := start
	for i := 0; i < steps; i++ {
		visits[cur]++
		if rng.Float64() < restartProb {
			// Restart from a fresh uniform node (not the original start):
			// component hopping, so disconnected regions get visited too.
			cur = graph.NodeID(rng.Intn(n))
			continue
		}
		nbrs := undirected(g, cur)
		if len(nbrs) == 0 {
			cur = graph.NodeID(rng.Intn(n))
			continue
		}
		cur = nbrs[rng.Intn(len(nbrs))]
	}
	// Rank nodes by (visits desc, id asc) — fully deterministic.
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		if visits[order[i]] != visits[order[j]] {
			return visits[order[i]] > visits[order[j]]
		}
		return order[i] < order[j]
	})
	seeds := make([]graph.NodeID, 0, k)
	taken := make(map[graph.NodeID]bool, 4*k)
	for relax := 0; relax < 2 && len(seeds) < k; relax++ {
		for _, v := range order {
			if len(seeds) == k {
				break
			}
			if taken[v] {
				continue
			}
			seeds = append(seeds, v)
			taken[v] = true
			if relax == 0 {
				// Exclude the seed's direct neighborhood on the first pass.
				for _, u := range g.OutNeighbors(v) {
					taken[u] = true
				}
				for _, u := range g.InNeighbors(v) {
					taken[u] = true
				}
			}
		}
		if relax == 0 && len(seeds) < k {
			// Relax: keep only the chosen seeds excluded so the second
			// pass may admit their neighbors.
			nt := make(map[graph.NodeID]bool, len(seeds))
			for _, s := range seeds {
				nt[s] = true
			}
			taken = nt
		}
	}
	return seeds
}

func randomUnvisited(rng *rand.Rand, n int, visited map[graph.NodeID]bool) graph.NodeID {
	for {
		v := graph.NodeID(rng.Intn(n))
		if !visited[v] {
			return v
		}
	}
}

// undirected returns out- then in-neighbors (with possible duplicates —
// acceptable for walk transition sampling; reciprocal contacts are simply
// twice as likely, matching edge-weighted transition).
func undirected(g *graph.Graph, v graph.NodeID) []graph.NodeID {
	out := g.OutNeighbors(v)
	in := g.InNeighbors(v)
	nbrs := make([]graph.NodeID, 0, len(out)+len(in))
	nbrs = append(nbrs, out...)
	nbrs = append(nbrs, in...)
	return nbrs
}

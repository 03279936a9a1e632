// Package partition models data partitioning in the prototype (§4.3):
// user views are mapped to data-store servers by hashing the user id, and
// batching lets one message serve every view a request touches on the
// same server. The package computes the placement-aware predicted cost
// (Figure 7) and per-server load statistics (Figure 8).
package partition

import (
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/sampling"
	"piggyback/internal/workload"
)

// Assignment maps each user view to a server.
type Assignment struct {
	Servers int
	of      []int32
}

// Hash assigns views to servers by hashing the user id — the "simple
// partitioning approach that is common in practical data store layers"
// used by the prototype. seed varies the layout across repetitions.
func Hash(nodes, servers int, seed int64) Assignment {
	if servers < 1 {
		servers = 1
	}
	a := Assignment{Servers: servers, of: make([]int32, nodes)}
	for u := 0; u < nodes; u++ {
		a.of[u] = int32(splitmix64(uint64(u)^uint64(seed)*0x9e3779b97f4a7c15) % uint64(servers))
	}
	return a
}

// Of returns the server hosting u's view.
func (a Assignment) Of(u graph.NodeID) int32 { return a.of[u] }

// Groups returns the node ids of every server's views, each list in
// ascending id order — the shape subgraph extraction (graph.Induced)
// wants.
func (a Assignment) Groups() [][]graph.NodeID {
	groups := make([][]graph.NodeID, a.Servers)
	counts := make([]int, a.Servers)
	for _, s := range a.of {
		counts[s]++
	}
	for s := range groups {
		groups[s] = make([]graph.NodeID, 0, counts[s])
	}
	for u, s := range a.of {
		groups[s] = append(groups[s], graph.NodeID(u))
	}
	return groups
}

// Locality assigns views to servers by graph structure instead of
// hashing: seed one region per server with a random-walk hot node
// (sampling.WalkSeeds), grow the regions breadth-first so each server
// gets a connected neighborhood, then run a few label-propagation
// refinement rounds that move nodes to their majority-neighbor server
// under a balance cap. The whole pipeline is sequential and iterates
// nodes, servers, and CSR adjacency in fixed order, so the assignment is
// deterministic given (g, servers, seed) — a requirement for the sharded
// solver's byte-identical schedules.
func Locality(g *graph.Graph, servers int, seed int64) Assignment {
	if servers < 1 {
		servers = 1
	}
	n := g.NumNodes()
	a := Assignment{Servers: servers, of: make([]int32, n)}
	if n == 0 {
		return a
	}
	for i := range a.of {
		a.of[i] = -1
	}
	load := make([]int, servers)
	// Balance cap: 25% slack over perfect balance, enforced both while
	// growing (a small-world hub seed would otherwise swallow the whole
	// graph in two BFS layers) and while refining.
	maxLoad := (n + servers - 1) / servers
	maxLoad += maxLoad / 4

	// Seed + grow: multi-source BFS, one source per server. Within each
	// BFS layer the servers advance in ascending id order, so a node
	// reachable from two frontiers at the same depth goes to the lower
	// server id. A server at its cap stops claiming; its unclaimed
	// neighbors stay available to later layers of other servers.
	seeds := sampling.WalkSeeds(g, servers, seed)
	frontiers := make([][]graph.NodeID, servers)
	for i, s := range seeds {
		a.of[s] = int32(i)
		load[i]++
		frontiers[i] = append(frontiers[i], s)
	}
	for {
		grew := false
		for s := 0; s < servers; s++ {
			cur := frontiers[s]
			if len(cur) == 0 {
				continue
			}
			var next []graph.NodeID
			for _, v := range cur {
				if load[s] >= maxLoad {
					break
				}
				for _, u := range g.OutNeighbors(v) {
					if a.of[u] < 0 && load[s] < maxLoad {
						a.of[u] = int32(s)
						load[s]++
						next = append(next, u)
					}
				}
				for _, u := range g.InNeighbors(v) {
					if a.of[u] < 0 && load[s] < maxLoad {
						a.of[u] = int32(s)
						load[s]++
						next = append(next, u)
					}
				}
			}
			frontiers[s] = next
			if len(next) > 0 {
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	// Isolated or unreached nodes (no seed in their component): give each
	// to the currently lightest server, lowest id first.
	for u := 0; u < n; u++ {
		if a.of[u] >= 0 {
			continue
		}
		best := 0
		for s := 1; s < servers; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		a.of[u] = int32(best)
		load[best]++
	}

	// Refine: label propagation under the same balance cap. A node moves
	// to the server holding a strict majority of its neighbors
	// (undirected view) if that server has headroom; ties keep the
	// current server, then prefer the lower id. Sequential node order ⇒
	// deterministic.
	stamp := make([]int64, servers)
	count := make([]int, servers)
	var gen int64
	const rounds = 8
	for r := 0; r < rounds; r++ {
		moved := 0
		for u := 0; u < n; u++ {
			uid := graph.NodeID(u)
			gen++
			tally := func(v graph.NodeID) {
				s := a.of[v]
				if stamp[s] != gen {
					stamp[s] = gen
					count[s] = 0
				}
				count[s]++
			}
			for _, v := range g.OutNeighbors(uid) {
				tally(v)
			}
			for _, v := range g.InNeighbors(uid) {
				tally(v)
			}
			curS := a.of[u]
			curCount := 0
			if stamp[curS] == gen {
				curCount = count[curS]
			}
			best, bestCount := curS, curCount
			for s := 0; s < servers; s++ {
				if stamp[int32(s)] != gen || int32(s) == curS {
					continue
				}
				if count[s] > bestCount && load[s] < maxLoad {
					best, bestCount = int32(s), count[s]
				}
			}
			if best != curS {
				load[curS]--
				load[best]++
				a.of[u] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return a
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// counterSet counts distinct servers touched by one request using a
// generation-stamped array — O(1) reset between requests.
type counterSet struct {
	stamp []int64
	gen   int64
	n     int
}

func newCounterSet(servers int) *counterSet {
	return &counterSet{stamp: make([]int64, servers)}
}

func (c *counterSet) reset() { c.gen++; c.n = 0 }

func (c *counterSet) add(s int32) {
	if c.stamp[s] != c.gen {
		c.stamp[s] = c.gen
		c.n++
	}
}

// Cost returns the placement-aware message cost of schedule s: for each
// user, an update touches the distinct servers hosting its own view and
// its push set, and a query the distinct servers hosting its own view and
// its pull set; batching merges same-server touches into one message.
func Cost(s *core.Schedule, r *workload.Rates, a Assignment) float64 {
	g := s.Graph()
	cs := newCounterSet(a.Servers)
	total := 0.0
	for u := 0; u < g.NumNodes(); u++ {
		uid := graph.NodeID(u)

		cs.reset()
		cs.add(a.Of(uid))
		lo, hi := g.OutEdgeRange(uid)
		targets := g.OutNeighbors(uid)
		for e := lo; e < hi; e++ {
			if s.IsPush(e) {
				cs.add(a.Of(targets[e-lo]))
			}
		}
		total += r.Prod[u] * float64(cs.n)

		cs.reset()
		cs.add(a.Of(uid))
		in := g.InNeighbors(uid)
		ids := g.InEdgeIDs(uid)
		for i, e := range ids {
			if s.IsPull(e) {
				cs.add(a.Of(in[i]))
			}
		}
		total += r.Cons[u] * float64(cs.n)
	}
	return total
}

// NormalizedThroughput returns predicted throughput under placement,
// normalized by the single-server optimum: cost(1 server)/cost(a). With
// one server every request is one message, so the normalizer is
// Σ rp(u) + rc(u); the result is 1 at one server and decreases as
// requests fan out over more servers (Figure 7's left axis).
func NormalizedThroughput(s *core.Schedule, r *workload.Rates, a Assignment) float64 {
	oneServer := 0.0
	for u := range r.Prod {
		oneServer += r.Prod[u] + r.Cons[u]
	}
	c := Cost(s, r, a)
	if c == 0 {
		return 0
	}
	return oneServer / c
}

// QueryLoad returns the query-message rate arriving at each server: for
// every user u and each distinct server its queries touch, that server
// receives rc(u). This is the load metric of Figure 8.
func QueryLoad(s *core.Schedule, r *workload.Rates, a Assignment) []float64 {
	g := s.Graph()
	load := make([]float64, a.Servers)
	cs := newCounterSet(a.Servers)
	touched := make([]int32, 0, 16)
	for u := 0; u < g.NumNodes(); u++ {
		uid := graph.NodeID(u)
		cs.reset()
		touched = touched[:0]
		add := func(sv int32) {
			if cs.stamp[sv] != cs.gen {
				cs.stamp[sv] = cs.gen
				touched = append(touched, sv)
			}
		}
		add(a.Of(uid))
		in := g.InNeighbors(uid)
		ids := g.InEdgeIDs(uid)
		for i, e := range ids {
			if s.IsPull(e) {
				add(a.Of(in[i]))
			}
		}
		for _, sv := range touched {
			load[sv] += r.Cons[u]
		}
	}
	return load
}

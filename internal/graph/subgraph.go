// Subgraph extraction with ID remapping — the substrate of localized
// re-optimization (§3.3 as extended by the online subsystem): a churned
// region of the social graph is cut out as a standalone dense-ID graph,
// re-solved in isolation, and the result is spliced back through the
// recorded node mapping.
//
// The kernels here test region membership in a per-call bitmap over
// the parent's node ids and read adjacency in CSR order, so ascending
// output falls out of the scan: nothing is hashed and nothing is sorted.

package graph

import "piggyback/internal/bitset"

// Subgraph is a node-induced subgraph of a parent graph, with dense local
// node and edge IDs plus the mapping back to the parent.
type Subgraph struct {
	// G is the extracted graph over local node ids 0..len(Global)-1.
	G *Graph
	// Global maps a local node id to its parent node id. It is sorted
	// ascending, so extraction is deterministic for a given node set and
	// a node's local id is its position in Global.
	Global []NodeID
	// GlobalEdge maps a local edge id to its parent edge id. It ascends
	// too: it is every parent edge with both endpoints in the node set, in
	// edge-id order.
	GlobalEdge []EdgeID
	// Parent is the graph the subgraph was extracted from.
	Parent *Graph
}

// nodeSet marks nodes (duplicates tolerated) in a bitmap over g's node
// ids and returns it with the distinct members ascending.
func nodeSet(g *Graph, nodes []NodeID) (*bitset.Set, []NodeID) {
	in := bitset.New(g.NumNodes())
	for _, v := range nodes {
		in.Set(int(v))
	}
	return in, in.AppendSet(make([]NodeID, 0, len(nodes)))
}

// countInduced returns the number of edges of g with both endpoints in
// the set, whose members are uniq.
func countInduced(g *Graph, in *bitset.Set, uniq []NodeID) int {
	m := 0
	for _, u := range uniq {
		for _, v := range g.OutNeighbors(u) {
			if in.Test(int(v)) {
				m++
			}
		}
	}
	return m
}

// Induced extracts the subgraph of g induced by the given nodes
// (duplicates tolerated): every edge of g with both endpoints in the set
// is kept, remapped to dense local ids, and its parent id recorded. The
// input slice is not retained; node order does not affect the result.
func Induced(g *Graph, nodes []NodeID) *Subgraph {
	in, global := nodeSet(g, nodes)
	// A member's local id is its rank in the ascending set. Members are
	// visited ascending and g's rows ascend, so each local row comes out
	// sorted, loop-free and in g's edge-id order: local edge i is parent
	// edge ids[i].
	ranks := in.Ranks()
	m := countInduced(g, in, global)
	start := make([]int32, len(global)+1)
	adj := make([]NodeID, 0, m)
	ids := make([]EdgeID, 0, m)
	for lu, u := range global {
		lo, _ := g.OutEdgeRange(u)
		for i, v := range g.OutNeighbors(u) {
			if in.Test(int(v)) {
				adj = append(adj, NodeID(in.Rank(ranks, int(v))))
				ids = append(ids, lo+EdgeID(i))
			}
		}
		start[lu+1] = int32(len(adj))
	}
	return &Subgraph{G: withInAdjacency(len(global), start, adj), Global: global, GlobalEdge: ids, Parent: g}
}

// KHop returns the nodes within k hops of the seeds, treating edges as
// undirected (a hub neighborhood spans both producers and consumers).
// The result is sorted ascending and includes the seeds. maxNodes > 0
// caps the result size: BFS stops admitting nodes once the cap is
// reached, completing the current layer in (distance, node id) order so
// the cut is deterministic.
func KHop(g *Graph, seeds []NodeID, k, maxNodes int) []NodeID {
	n := g.NumNodes()
	limit := n
	if maxNodes > 0 && maxNodes < n {
		limit = maxNodes
	}
	// layer holds the WHOLE next layer before any of it is admitted, so a
	// cap admits the layer's lowest ids regardless of which frontier node
	// found them; seen holds what has been admitted, cleared from layer a
	// word at a time instead of tested per neighbour.
	seen, layer := bitset.New(n), bitset.New(n)
	for _, v := range seeds {
		layer.Set(int(v))
	}
	var frontier []NodeID
	count := 0
	for hop := 0; ; hop++ {
		frontier = frontier[:0]
		for i, ok := layer.NextSet(0); ok && count < limit; i, ok = layer.NextSet(i + 1) {
			seen.Set(i)
			frontier = append(frontier, NodeID(i))
			count++
		}
		if hop >= k || count == limit || len(frontier) == 0 {
			break
		}
		layer.Reset()
		for _, u := range frontier {
			for _, v := range g.OutNeighbors(u) {
				layer.Set(int(v))
			}
			for _, v := range g.InNeighbors(u) {
				layer.Set(int(v))
			}
		}
		layer.AndNot(seen)
	}
	return seen.AppendSet(make([]NodeID, 0, count))
}

package graph

import (
	"math/rand"
	"sort"
)

// Stats summarizes a graph for the dataset table in the evaluation.
type Stats struct {
	Nodes          int
	Edges          int
	AvgOutDegree   float64
	MaxOutDegree   int
	MaxInDegree    int
	Reciprocity    float64
	ClusteringCoef float64 // sampled local clustering coefficient
}

// ComputeStats gathers summary statistics. Clustering is estimated from up
// to sampleNodes random nodes (exact if sampleNodes >= NumNodes); pass a
// seeded rng for determinism.
func (g *Graph) ComputeStats(sampleNodes int, rng *rand.Rand) Stats {
	s := Stats{Nodes: g.n, Edges: g.NumEdges()}
	if g.n > 0 {
		s.AvgOutDegree = float64(g.NumEdges()) / float64(g.n)
	}
	for u := 0; u < g.n; u++ {
		if d := g.OutDegree(NodeID(u)); d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		if d := g.InDegree(NodeID(u)); d > s.MaxInDegree {
			s.MaxInDegree = d
		}
	}
	s.Reciprocity = g.Reciprocity()
	s.ClusteringCoef = g.ClusteringCoefficient(sampleNodes, rng)
	return s
}

// ClusteringCoefficient estimates the average local clustering coefficient
// over the undirected projection of the graph, sampling up to sampleNodes
// nodes. The paper's hub argument rests on this being high for social
// graphs.
func (g *Graph) ClusteringCoefficient(sampleNodes int, rng *rand.Rand) float64 {
	if g.n == 0 {
		return 0
	}
	nodes := make([]NodeID, g.n)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	if sampleNodes > 0 && sampleNodes < g.n {
		rng.Shuffle(len(nodes), func(i, j int) {
			nodes[i], nodes[j] = nodes[j], nodes[i]
		})
		nodes = nodes[:sampleNodes]
	}
	sum, counted := 0.0, 0
	for _, u := range nodes {
		nbrs := g.undirectedNeighbors(u)
		k := len(nbrs)
		if k < 2 {
			continue
		}
		links := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if g.HasEdge(nbrs[i], nbrs[j]) || g.HasEdge(nbrs[j], nbrs[i]) {
					links++
				}
			}
		}
		sum += float64(links) / float64(k*(k-1)/2)
		counted++
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}

// undirectedNeighbors merges in- and out-neighbors of u, deduplicated,
// capped at 200 neighbors to bound the O(k²) triangle count on celebrity
// nodes (standard practice for sampled clustering estimates).
func (g *Graph) undirectedNeighbors(u NodeID) []NodeID {
	const cap200 = 200
	out := g.OutNeighbors(u)
	in := g.InNeighbors(u)
	merged := make([]NodeID, 0, len(out)+len(in))
	merged = append(merged, out...)
	merged = append(merged, in...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	dst := 0
	for i, v := range merged {
		if i > 0 && v == merged[i-1] {
			continue
		}
		merged[dst] = v
		dst++
	}
	merged = merged[:dst]
	if len(merged) > cap200 {
		merged = merged[:cap200]
	}
	return merged
}

// GallopFactor is the length skew beyond which NOSY's structure build
// hands a pair to CommonInEdges instead of its own stamp scan: when one
// endpoint is a celebrity (in-degree orders of magnitude above the
// other's), probing the long list in O(short · log long) beats walking it.
const GallopFactor = 16

// CommonInEdges intersects the in-neighbor lists of a and b and appends,
// for every common producer x in ascending order, the node and the edge
// ids of x → a and x → b to the provided buffers (which may be nil). It
// returns the extended buffers. The result is truncated to limit entries
// if limit > 0. It gallops: each element of the shorter list is found in
// the longer by an exponential probe and a binary search forward from the
// last match, and the in-CSR keeps edge ids parallel to the neighbor
// lists, so both ids come with the match. CommonInNeighbors is the linear
// merge it is held to.
func (g *Graph) CommonInEdges(a, b NodeID, limit int, xs []NodeID, ea, eb []EdgeID) ([]NodeID, []EdgeID, []EdgeID) {
	short, long := g.InNeighbors(a), g.InNeighbors(b)
	shortIDs, longIDs := g.InEdgeIDs(a), g.InEdgeIDs(b)
	// swapped: the short list is b's, so its ids go to eb.
	swapped := len(short) > len(long)
	if swapped {
		short, long, shortIDs, longIDs = long, short, longIDs, shortIDs
	}
	start := len(xs)
	j := 0
	for i, x := range short {
		// Exponential probe for the first long[k] >= x, then binary search
		// inside the bracketed window [j+step/2, j+step].
		step := 1
		for j+step < len(long) && long[j+step] < x {
			step <<= 1
		}
		lo, hi := j+step>>1, j+step
		if hi > len(long) {
			hi = len(long)
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if long[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		j = lo
		if j >= len(long) {
			return xs, ea, eb
		}
		if long[j] == x {
			xs = append(xs, x)
			if swapped {
				ea = append(ea, longIDs[j])
				eb = append(eb, shortIDs[i])
			} else {
				ea = append(ea, shortIDs[i])
				eb = append(eb, longIDs[j])
			}
			if limit > 0 && len(xs)-start >= limit {
				return xs, ea, eb
			}
			j++
		}
	}
	return xs, ea, eb
}

// CommonInNeighbors returns the sorted intersection of the in-neighbor
// lists of a and b: the candidate producers x with x → a and x → b.
// The result is truncated to at most limit entries if limit > 0.
func (g *Graph) CommonInNeighbors(a, b NodeID, limit int) []NodeID {
	la, lb := g.InNeighbors(a), g.InNeighbors(b)
	var out []NodeID
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i] < lb[j]:
			i++
		case la[i] > lb[j]:
			j++
		default:
			out = append(out, la[i])
			if limit > 0 && len(out) >= limit {
				return out
			}
			i++
			j++
		}
	}
	return out
}

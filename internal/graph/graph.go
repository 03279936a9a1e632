// Package graph implements the directed social graph substrate used by all
// scheduling algorithms.
//
// The model follows the paper: an edge u → v means user v subscribes to the
// events produced by u (u is the producer, v the consumer). The graph is
// stored in compressed sparse row (CSR) form with both out- and
// in-adjacency, and every edge has a dense integer id — its position in the
// out-adjacency array — so request schedules can be kept as flat per-edge
// arrays instead of hash sets.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrEdgeOutOfRange reports an edge whose endpoint is outside the
// builder's node range. Builder.AddEdge panics with an error wrapping it;
// Builder.TryAddEdge returns it.
var ErrEdgeOutOfRange = errors.New("graph: edge endpoint out of range")

// NodeID identifies a user/node. Nodes are dense: 0..NumNodes()-1.
type NodeID = int32

// EdgeID identifies a directed edge; it is the edge's index in the CSR
// out-adjacency array. Edges are dense: 0..NumEdges()-1.
type EdgeID = int32

// Edge is a directed edge From → To: To subscribes to From's events.
type Edge struct {
	From NodeID
	To   NodeID
}

// Compare orders edges by (From, To) — edge-id order.
func (e Edge) Compare(o Edge) int {
	if c := cmp.Compare(e.From, o.From); c != 0 {
		return c
	}
	return cmp.Compare(e.To, o.To)
}

// Graph is an immutable directed graph in CSR form. Build one with a
// Builder or FromEdges.
type Graph struct {
	n        int
	outStart []int32 // len n+1; out-edges of u are ids outStart[u]..outStart[u+1)
	outAdj   []NodeID
	inStart  []int32  // len n+1
	inAdj    []NodeID // sorted sources per target
	inEdge   []EdgeID // edge id parallel to inAdj
}

// Builder accumulates edges before freezing them into a Graph. Duplicate
// edges and self-loops are dropped at Build time.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the edge u → v (v subscribes to u). Out-of-range node
// ids panic with an error wrapping ErrEdgeOutOfRange (the solver API
// recovers it into a returned error; use TryAddEdge to handle it at the
// call site); self-loops are silently ignored (a user's own view always
// carries the user's events — the cost of serving oneself is implicit in
// the model).
func (b *Builder) AddEdge(u, v NodeID) {
	if err := b.TryAddEdge(u, v); err != nil {
		panic(err)
	}
}

// TryAddEdge is AddEdge with an error return instead of a panic: it
// reports an error wrapping ErrEdgeOutOfRange when an endpoint is outside
// [0, n).
func (b *Builder) TryAddEdge(u, v NodeID) error {
	if int(u) < 0 || int(u) >= b.n || int(v) < 0 || int(v) >= b.n {
		return fmt.Errorf("%w: edge (%d,%d) outside [0,%d)", ErrEdgeOutOfRange, u, v, b.n)
	}
	if u == v {
		return nil
	}
	b.edges = append(b.edges, Edge{u, v})
	return nil
}

// NumPending returns the number of edges added so far (before dedup).
func (b *Builder) NumPending() int { return len(b.edges) }

// Build freezes the accumulated edges into an immutable Graph; edges
// added in edge-id order (an induced subgraph, a rebase) are not re-sorted.
func (b *Builder) Build() *Graph {
	if !slices.IsSortedFunc(b.edges, Edge.Compare) {
		slices.SortFunc(b.edges, Edge.Compare)
	}
	// Dedup in place.
	dst := 0
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		b.edges[dst] = e
		dst++
	}
	edges := b.edges[:dst]

	g := &Graph{
		n:        b.n,
		outStart: make([]int32, b.n+1),
		outAdj:   make([]NodeID, len(edges)),
		inStart:  make([]int32, b.n+1),
		inAdj:    make([]NodeID, len(edges)),
		inEdge:   make([]EdgeID, len(edges)),
	}
	for _, e := range edges {
		g.outStart[e.From+1]++
		g.inStart[e.To+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outStart[i+1] += g.outStart[i]
		g.inStart[i+1] += g.inStart[i]
	}
	for i, e := range edges {
		g.outAdj[i] = e.To
	}
	// Fill in-adjacency sorted by source: iterate edges in (From,To) order
	// and append per target; afterwards each target's list is sorted by
	// source because edge iteration is sorted by From.
	cursor := make([]int32, b.n)
	copy(cursor, g.inStart[:b.n])
	for i, e := range edges {
		p := cursor[e.To]
		g.inAdj[p] = e.From
		g.inEdge[p] = EdgeID(i)
		cursor[e.To]++
	}
	return g
}

// FromEdges builds a graph with n nodes from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.From, e.To)
	}
	return b.Build()
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.outAdj) }

// OutDegree returns the number of subscribers (followers) of u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outStart[u+1] - g.outStart[u])
}

// InDegree returns the number of producers v subscribes to.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.inStart[v+1] - g.inStart[v])
}

// OutNeighbors returns the consumers of u (targets of u's out-edges),
// sorted ascending. The returned slice aliases internal storage and must
// not be modified.
func (g *Graph) OutNeighbors(u NodeID) []NodeID {
	return g.outAdj[g.outStart[u]:g.outStart[u+1]]
}

// InNeighbors returns the producers of v (sources of v's in-edges), sorted
// ascending. The returned slice aliases internal storage and must not be
// modified.
func (g *Graph) InNeighbors(v NodeID) []NodeID {
	return g.inAdj[g.inStart[v]:g.inStart[v+1]]
}

// InEdgeIDs returns the edge ids parallel to InNeighbors(v).
func (g *Graph) InEdgeIDs(v NodeID) []EdgeID {
	return g.inEdge[g.inStart[v]:g.inStart[v+1]]
}

// OutEdgeRange returns the half-open edge-id interval [lo, hi) of u's
// out-edges; edge id e in that range targets OutNeighbors(u)[e-lo].
func (g *Graph) OutEdgeRange(u NodeID) (lo, hi EdgeID) {
	return g.outStart[u], g.outStart[u+1]
}

// HasEdge reports whether the edge u → v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.EdgeID(u, v)
	return ok
}

// EdgeID returns the dense id of edge u → v, if it exists.
func (g *Graph) EdgeID(u, v NodeID) (EdgeID, bool) {
	lo, hi := g.outStart[u], g.outStart[u+1]
	adj := g.outAdj[lo:hi]
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i < len(adj) && adj[i] == v {
		return lo + int32(i), true
	}
	return -1, false
}

// RowStamp answers EdgeID(u, w) for one source u at a time without a
// search: Stamp(u) writes the id of every out-edge u → w at index w of a
// node-indexed array, and Edge(w) reads it back. An entry left by another
// source's row is told apart by its id falling outside u's out-range, so
// the array is never cleared. A sweep that visits edges grouped by source
// pays one O(out-degree) stamp per source instead of a binary search per
// lookup. The zero value is ready once Reset has named the graph.
type RowStamp struct {
	g      *Graph
	at     []EdgeID
	u      NodeID
	lo, hi EdgeID
}

// Reset points the stamp at g, reusing its storage, with no row stamped.
func (st *RowStamp) Reset(g *Graph) {
	st.g, st.u, st.lo, st.hi = g, -1, 0, 0
	if cap(st.at) < g.n {
		st.at = make([]EdgeID, g.n)
	}
	st.at = st.at[:g.n]
}

// Stamp makes u the source Edge answers for; stamping the current source
// again is free.
func (st *RowStamp) Stamp(u NodeID) {
	if u == st.u {
		return
	}
	st.u = u
	st.lo, st.hi = st.g.outStart[u], st.g.outStart[u+1]
	for e := st.lo; e < st.hi; e++ {
		st.at[st.g.outAdj[e]] = e
	}
}

// Edge returns the id of the stamped source's edge to w, if it exists.
func (st *RowStamp) Edge(w NodeID) (EdgeID, bool) {
	e := st.at[w]
	return e, e >= st.lo && e < st.hi && st.g.outAdj[e] == w
}

// EdgeSource returns the source node of edge e (binary search over the CSR
// row offsets, O(log n)).
func (g *Graph) EdgeSource(e EdgeID) NodeID {
	// Find the largest u with outStart[u] <= e.
	u := sort.Search(g.n, func(u int) bool { return g.outStart[u+1] > e })
	return NodeID(u)
}

// EdgeTarget returns the target node of edge e.
func (g *Graph) EdgeTarget(e EdgeID) NodeID { return g.outAdj[e] }

// EdgeAt returns both endpoints of edge e.
func (g *Graph) EdgeAt(e EdgeID) Edge {
	return Edge{From: g.EdgeSource(e), To: g.EdgeTarget(e)}
}

// Edges calls fn for every edge in id order; it stops early if fn returns
// false.
func (g *Graph) Edges(fn func(id EdgeID, u, v NodeID) bool) {
	for u := 0; u < g.n; u++ {
		lo, hi := g.outStart[u], g.outStart[u+1]
		for e := lo; e < hi; e++ {
			if !fn(e, NodeID(u), g.outAdj[e]) {
				return
			}
		}
	}
}

// EdgeList materializes all edges in id order.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.Edges(func(_ EdgeID, u, v NodeID) bool {
		out = append(out, Edge{u, v})
		return true
	})
	return out
}

// Reciprocity returns the fraction of edges u → v whose reverse edge
// v → u also exists. Social graphs differ widely here (Flickr ≈ 0.6,
// Twitter ≈ 0.2), and reciprocity drives hub availability.
func (g *Graph) Reciprocity() float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	rec := 0
	g.Edges(func(_ EdgeID, u, v NodeID) bool {
		if g.HasEdge(v, u) {
			rec++
		}
		return true
	})
	return float64(rec) / float64(g.NumEdges())
}

// Package densest solves the weighted densest-subgraph problem used as
// CHITCHAT's oracle (§3.1, Lemma 1): given an undirected instance graph
// with non-negative node weights g, find S maximizing
//
//	d_w(S) = |E(S)| / g(S)
//
// The oracle is the modified Asahiro/Charikar greedy: repeatedly delete
// the node with the smallest weighted degree deg(u)/g(u) and return the
// best intermediate subgraph. Lemma 1 proves this is a factor-2
// approximation.
// Decremental materializes an instance once and maintains it under
// element removal and weight zeroing — the exact mutations CHITCHAT's
// greedy commits perform — so re-solving skips the instance rebuild, and
// its Solve pays only for the live, unpaid part of the instance: paid
// and isolated nodes never enter the peel heap, and the adjacency is
// compacted as elements die (DESIGN.md §14 states the invariant and why
// the result is bit-identical to the every-node peel, which survives as
// the tests' referencePeel).
//
// Zero-weight nodes (cost already paid by earlier greedy steps) have
// infinite priority, so they would be peeled last and are members of
// every candidate subgraph; a subgraph with positive edges and zero total
// weight has infinite density — i.e., free coverage.
package densest

// Instance is an undirected multigraph with weighted nodes. Parallel
// edges are allowed (they never arise in CHITCHAT's hub-graphs but cost
// nothing to support). Edges must reference nodes 0..N-1.
type Instance struct {
	N      int
	Edges  [][2]int32
	Weight []float64 // len N, all >= 0
}

// Result is the selected node set and its density, EdgeCnt/Weight, which
// may be +Inf (positive edges, zero weight); Denser compares results exactly without
// dividing.
type Result struct {
	Members []int32
	EdgeCnt int
	Weight  float64
	// Peeled is the peel's removal order up to the best snapshot (the
	// complement of Members), EdgesAfter[k] the live elements left after
	// removing Peeled[k]: Decremental.Replay's input.
	Peeled     []int32
	EdgesAfter []int32
}

// Denser reports whether r is strictly denser than o, comparing by
// cross-multiplication so zero weights are exact.
func (r Result) Denser(o Result) bool {
	return denser(r.EdgeCnt, r.Weight, o.EdgeCnt, o.Weight)
}

func denser(rE int, rW float64, oE int, oW float64) bool {
	// r.E/r.W > o.E/o.W  ⟺  r.E*o.W > o.E*r.W   (weights >= 0)
	lhs := float64(rE) * oW
	rhs := float64(oE) * rW
	if lhs != rhs {
		return lhs > rhs
	}
	// Equal ratios: prefer more coverage (more edges).
	return rE > oE
}

// Scratch is a reusable per-worker arena for the peel: the heap, its
// position index, the removal order with its edge counts and the removed
// marks. A nil Scratch makes every call allocate fresh; callers in hot
// loops (each CHITCHAT oracle evaluation runs one peel) hold one Scratch
// per worker goroutine and reuse all of it. The zero value is ready to
// use. A Scratch must not be shared between concurrent calls.
type Scratch struct {
	heap  []peelEntry
	pos   []int32 // pos[u] = heap slot of u, valid only while u is queued
	gone  []bool
	order []int32
	after []int32 // live elements left after each removal in order
}

// grow returns a length-n slice backed by b's storage when it is large
// enough, allocating otherwise; contents are unspecified.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// peelEntry is one queued vertex: key and id are stored together, so a
// heap comparison reads its two entries and no side table.
type peelEntry struct {
	key float64 // deg / weight[id]
	id  int32
	deg int32 // live elements to vertices not yet peeled
}

// peelHeap is the binary min-heap behind the peel, ordered by (key, id).
// It supports exactly what the peel does — bulk build, pop-min and
// decrease-key — which is why it is not pq.IndexedMin: no per-compare
// indirection through pos and prio tables, no increase-key, no removal.
type peelHeap []peelEntry

func (e peelEntry) less(o peelEntry) bool {
	return e.key < o.key || (e.key == o.key && e.id < o.id)
}

// init establishes the heap property bottom-up and fills pos.
func (h peelHeap) init(pos []int32) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, h[i], pos)
	}
	for i, e := range h {
		pos[e.id] = int32(i)
	}
}

// up sifts e, destined for slot i, towards the root.
func (h peelHeap) up(i int, e peelEntry, pos []int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		pos[h[i].id] = int32(i)
		i = parent
	}
	h[i] = e
	pos[e.id] = int32(i)
}

// down sifts e, destined for slot i, towards the leaves.
func (h peelHeap) down(i int, e peelEntry, pos []int32) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(e) {
			break
		}
		h[i] = h[c]
		pos[h[i].id] = int32(i)
		i = c
	}
	h[i] = e
	pos[e.id] = int32(i)
}

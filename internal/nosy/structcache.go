package nosy

import (
	"sync"

	"piggyback/internal/graph"
)

// structCache memoizes the immutable structural part of candidate
// evaluation: for hub edge w → y, the common-producer intersection
// (Xs, XWEdges, XYEdges) returned by graph.CommonInEdges depends only on
// the graph and the MaxCrossEdges bound, never on the schedule. It is
// computed on the hub edge's first evaluation and kept for the solve:
// nothing is evicted, as Σ|X| is 4.5–12 MB at 12 bytes an entry on the
// benchmark and experiment graphs (DESIGN.md §6). Entries go to flat
// (xs, xw, xy) chunks, and a per-edge record points at the span; an empty
// X is a record with n = 0.
//
// Concurrency rests on the round barrier: a round evaluates each dirty
// hub edge on exactly one goroutine and joins its workers before the next
// round, so another goroutine reads a record only after the join that
// follows its write, and records need no lock. The mutex guards the
// append cursor alone: a span is reserved under it and filled after, and
// chunk arrays are allocated at full length and never resliced, so
// concurrent fills write disjoint elements.
type structCache struct {
	recs []structRec // per hub edge
	mu   sync.Mutex
	cur  *structChunk // the chunk being filled; guarded by mu
}

// structRec locates a hub edge's intersection; chunk is nil until the
// hub edge is first evaluated.
type structRec struct {
	chunk    *structChunk
	start, n int32
}

// structChunk is one arena chunk, filled front to back; used is guarded
// by structCache.mu.
type structChunk struct {
	xs     []graph.NodeID
	xw, xy []graph.EdgeID
	used   int
}

// chunkEntries is the length of an arena chunk. An intersection that
// does not fit in the current chunk's rest starts a new one, and one at
// least this long gets a chunk of its own size, so a chunk's unused tail
// is shorter than the entry that retired it.
const chunkEntries = 1 << 13

// get returns the stored intersection of hub edge he; ok is false before
// its first evaluation.
func (c *structCache) get(he graph.EdgeID) (xs []graph.NodeID, xw, xy []graph.EdgeID, ok bool) {
	r := c.recs[he]
	if r.chunk == nil {
		return nil, nil, nil, false
	}
	lo, hi := r.start, r.start+r.n
	return r.chunk.xs[lo:hi], r.chunk.xw[lo:hi], r.chunk.xy[lo:hi], true
}

// put stores the intersection of hub edge he.
func (c *structCache) put(he graph.EdgeID, xs []graph.NodeID, xw, xy []graph.EdgeID) {
	n := len(xs)
	c.mu.Lock()
	k := c.cur
	if k == nil || k.used+n > len(k.xs) {
		size := max(n, chunkEntries)
		k = &structChunk{
			xs: make([]graph.NodeID, size),
			xw: make([]graph.EdgeID, size),
			xy: make([]graph.EdgeID, size),
		}
		if n < chunkEntries {
			c.cur = k
		}
	}
	start := k.used
	k.used += n
	c.mu.Unlock()
	copy(k.xs[start:], xs)
	copy(k.xw[start:], xw)
	copy(k.xy[start:], xy)
	c.recs[he] = structRec{chunk: k, start: int32(start), n: int32(n)}
}

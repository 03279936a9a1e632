package nosy

import (
	"piggyback/internal/graph"
	"piggyback/internal/par"
)

// structCache holds every hub edge's producer span: for hub edge w → y,
// the common-producer intersection (xs, xw, xy) that graph.CommonInEdges
// returns under the maxCrossEdges bound. It is built once, before round
// 0: Σ|X| is 4.5–12 MB at 12 bytes an entry on the benchmark and
// experiment graphs (DESIGN.md §6). Entries go to flat (xs, xw, xy)
// chunks, each filled by one build worker, and a per-edge record points
// at the span; an empty X is a record with n = 0.
//
// The span is also the hub edge's candidate. Each evaluation (eval)
// moves the producers that pass its filter to the front, in order, and
// shrinks the record's n to their count; flags only gain bits during a
// solve, so a dropped producer could never pass again. An evaluation
// writes only its own hub edge's record and span, so the workers of a
// round share the cache without a lock.
type structCache struct {
	recs []structRec // per hub edge
}

// structRec locates a hub edge's span: n entries from start.
type structRec struct {
	chunk    *structChunk
	start, n int32
}

// structChunk is one arena chunk, filled front to back by one worker.
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

// buildScratch is one build worker's state, padded so that no two
// workers' slice headers share a cache line: the intersection being
// computed, the chunk being filled, and the stamp. mark[x] holds w+1 in
// its high half and the id of edge x → w in its low half once in(w) is
// stamped; a stale entry names another source, so mark is never cleared.
type buildScratch struct {
	xs     []graph.NodeID
	xw, xy []graph.EdgeID
	cur    *structChunk
	mark   []uint64
	_      [64]byte
}

// buildStructCache computes every hub edge's intersection, capped at
// limit entries, in spans of workBatch source nodes on up to workers
// goroutines (one per workerShare edges). Per source w it stamps in(w)
// once, then for each hub edge w → y scans in(y) against the stamp: the
// hits come in ascending producer order and stop at the cap, which is
// exactly CommonInEdges' output. A pair skewed beyond graph.GallopFactor
// goes to CommonInEdges itself, which gallops the short list into the
// long one instead of scanning it.
func buildStructCache(g *graph.Graph, limit, workers int) *structCache {
	c := &structCache{recs: make([]structRec, g.NumEdges())}
	nw := par.Workers(workers, g.NumEdges(), workerShare)
	scratch := make([]buildScratch, nw)
	par.Blocks(nw, g.NumNodes(), workBatch, func(lo, hi, wk int) {
		sc := &scratch[wk]
		if sc.mark == nil {
			sc.mark = make([]uint64, g.NumNodes())
		}
		for w := graph.NodeID(lo); w < graph.NodeID(hi); w++ {
			inW := g.InNeighbors(w)
			stamped := false
			tag := uint64(w) + 1
			elo, ehi := g.OutEdgeRange(w)
			for he := elo; he < ehi; he++ {
				y := g.EdgeTarget(he)
				inY := g.InNeighbors(y)
				xs, xw, xy := sc.xs[:0], sc.xw[:0], sc.xy[:0]
				if len(inW) > graph.GallopFactor*len(inY) || len(inY) > graph.GallopFactor*len(inW) {
					xs, xw, xy = g.CommonInEdges(w, y, limit, xs, xw, xy)
				} else {
					if !stamped {
						for i, id := range g.InEdgeIDs(w) {
							sc.mark[inW[i]] = tag<<32 | uint64(uint32(id))
						}
						stamped = true
					}
					ids := g.InEdgeIDs(y)
					for j, x := range inY {
						if m := sc.mark[x]; m>>32 == tag {
							xs = append(xs, x)
							xw = append(xw, graph.EdgeID(uint32(m)))
							xy = append(xy, ids[j])
							if limit > 0 && len(xs) >= limit {
								break
							}
						}
					}
				}
				sc.xs, sc.xw, sc.xy = xs, xw, xy
				c.put(he, sc)
			}
		}
	})
	return c
}

// put stores the intersection in sc as hub edge he's, in sc's chunk.
func (c *structCache) put(he graph.EdgeID, sc *buildScratch) {
	n := len(sc.xs)
	k := sc.cur
	if k == nil || k.used+n > len(k.xs) {
		size := max(n, chunkEntries)
		k = &structChunk{
			xs: make([]graph.NodeID, size),
			xw: make([]graph.EdgeID, size),
			xy: make([]graph.EdgeID, size),
		}
		if n < chunkEntries {
			sc.cur = k
		}
	}
	start := k.used
	k.used += n
	copy(k.xs[start:], sc.xs)
	copy(k.xw[start:], sc.xw)
	copy(k.xy[start:], sc.xy)
	c.recs[he] = structRec{chunk: k, start: int32(start), n: int32(n)}
}

// get returns hub edge he's span.
func (c *structCache) get(he graph.EdgeID) (xs []graph.NodeID, xw, xy []graph.EdgeID) {
	r := c.recs[he]
	lo, hi := r.start, r.start+r.n
	return r.chunk.xs[lo:hi], r.chunk.xw[lo:hi], r.chunk.xy[lo:hi]
}

// Decremental densest-subgraph oracle: the instance is materialized once
// (CSR adjacency + weights) and then maintained under the two mutations
// CHITCHAT's greedy loop actually performs — element removal (a covered
// edge leaves the ground set) and node-weight zeroing (a support push or
// pull got paid). Solving peels only the live, unpaid part of the
// instance: the per-vertex adjacency is kept dense over live elements by
// Compact, and vertices that are paid for or isolated never enter the
// peel heap (DESIGN.md §14 states the invariant).
package densest

// Decremental is a peeling oracle over a materialized instance that
// supports deleting elements and zeroing node weights in O(1), with
// solves over the remaining live sub-instance. Solve is a pure read of
// the maintained state (all mutable peel state lives in the Scratch), so
// concurrent Solve calls with distinct scratches are safe; RemoveEdge,
// ZeroWeight and Compact must not run concurrently with anything else.
type Decremental struct {
	n      int
	weight []float64  // current node weights (zeroed as costs are paid)
	edges  [][2]int32 // all materialized edges, dead ones included
	off    []int32    // CSR offsets, len n+1
	adj    []int32    // incident edge indices, 2 per represented element
	deg    []int32    // live degree per node
	alive  []bool     // per materialized edge: element still present
	live   int        // number of live edges
}

// NewDecremental materializes inst. The instance data is copied; later
// changes to inst do not affect the oracle.
func NewDecremental(inst Instance) *Decremental {
	n := inst.N
	m := len(inst.Edges)
	d := &Decremental{
		n:      n,
		weight: append([]float64(nil), inst.Weight[:n]...),
		edges:  append([][2]int32(nil), inst.Edges...),
		off:    make([]int32, n+1),
		deg:    make([]int32, n),
		alive:  make([]bool, m),
		live:   m,
	}
	for _, e := range d.edges {
		d.deg[e[0]]++
		d.deg[e[1]]++
	}
	// CSR adjacency: incident edge indices of u are adj[off[u]:off[u+1]].
	for u := 0; u < n; u++ {
		d.off[u+1] = d.off[u] + d.deg[u]
	}
	d.adj = make([]int32, 2*m)
	cur := append([]int32(nil), d.off[:n]...)
	for ei, e := range d.edges {
		d.adj[cur[e[0]]] = int32(ei)
		cur[e[0]]++
		d.adj[cur[e[1]]] = int32(ei)
		cur[e[1]]++
	}
	for i := range d.alive {
		d.alive[i] = true
	}
	return d
}

// N returns the number of instance nodes.
func (d *Decremental) N() int { return d.n }

// AliveEdges returns the number of live elements.
func (d *Decremental) AliveEdges() int { return d.live }

// Edge returns the endpoints of materialized edge ei.
func (d *Decremental) Edge(ei int) (a, b int32) {
	return d.edges[ei][0], d.edges[ei][1]
}

// EdgeAlive reports whether element ei is still present.
func (d *Decremental) EdgeAlive(ei int) bool { return d.alive[ei] }

// IncidentEdges returns the represented edge indices incident to node u:
// every live element at u, plus those removed since the last Compact
// (check EdgeAlive). The slice aliases internal storage, must not be
// modified, and is invalidated by Compact.
func (d *Decremental) IncidentEdges(u int) []int32 {
	return d.adj[d.off[u]:d.off[u+1]]
}

// RemoveEdge deletes element ei from the ground set. Removing an already
// dead element is a no-op; it reports whether the element was live.
func (d *Decremental) RemoveEdge(ei int) bool {
	if !d.alive[ei] {
		return false
	}
	d.alive[ei] = false
	d.deg[d.edges[ei][0]]--
	d.deg[d.edges[ei][1]]--
	d.live--
	return true
}

// ZeroWeight sets node u's weight to zero — the greedy step that selected
// u already pays its support cost, so u is free for every later solve.
func (d *Decremental) ZeroWeight(u int) { d.weight[u] = 0 }

// Compact squeezes dead elements out of the adjacency once fewer than half
// the represented elements are live, and is a no-op otherwise — so the
// scans in Solve and IncidentEdges stay within 2× of the live size at
// O(1) per RemoveEdge, averaged over a run of removals. It rewrites adj and off in place (the
// live entries only move left); element ids, Edge and EdgeAlive are
// unaffected. It is a mutation like RemoveEdge: it must not run
// concurrently with Solve, nor while a caller iterates an IncidentEdges
// slice — which is why RemoveEdge never triggers it.
func (d *Decremental) Compact() {
	if 4*d.live >= len(d.adj) {
		return
	}
	w, lo := int32(0), int32(0)
	for u := 0; u < d.n; u++ {
		hi := d.off[u+1]
		d.off[u] = w
		for _, ei := range d.adj[lo:hi] {
			if d.alive[ei] {
				d.adj[w] = ei
				w++
			}
		}
		lo = hi
	}
	d.off[d.n] = w
	d.adj = d.adj[:w]
}

// Solve peels the live sub-instance and returns the densest intermediate
// subgraph: repeatedly delete the vertex with the smallest deg(u)/g(u),
// ties towards the lowest id, and keep the best snapshot. Only vertices
// that are unpaid (weight > 0) and connected (live degree > 0) are ever
// queued. Isolated unpaid vertices have ratio 0 and nothing can change
// that, so they leave first, in id order, without touching the heap;
// weightless vertices have ratio +Inf, would leave last, and peeling them
// can only lose elements at zero weight — no such snapshot is ever denser
// — so the peel stops at the last unpaid vertex and they are always
// members. It reads but never writes the maintained state; all working
// arrays come from sc, so concurrent solves with distinct scratches are
// safe. Instances must not contain self-loops.
func (d *Decremental) Solve(sc *Scratch) Result {
	if sc == nil {
		sc = &Scratch{}
	}
	n := d.n
	if n == 0 {
		return Result{}
	}
	weight := d.weight
	order := grow(sc.order, n)[:0]
	after := grow(sc.after, n)
	h := peelHeap(grow(sc.heap, n)[:0])
	pos := grow(sc.pos, n)
	gone := grow(sc.gone, n)
	clear(gone)

	curWeight := 0.0
	for u, w := range weight {
		curWeight += w
		if w == 0 {
			continue
		}
		if deg := d.deg[u]; deg == 0 {
			order = append(order, int32(u))
		} else {
			h = append(h, peelEntry{float64(deg) / w, int32(u), deg})
		}
	}
	isolated := len(order)
	unpaid := isolated + len(h)
	h.init(pos)
	curEdges := d.live

	bestEdges, bestWeight := curEdges, curWeight
	bestStep := 0 // number of removals before the best snapshot
	for step := 1; step <= unpaid; step++ {
		var u int32
		if step <= isolated {
			u = order[step-1]
		} else {
			u = h[0].id
			last := h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) > 0 {
				h.down(0, last, pos)
			}
			order = append(order, u)
			gone[u] = true
			for _, ei := range d.adj[d.off[u]:d.off[u+1]] {
				if !d.alive[ei] {
					continue
				}
				other := d.edges[ei][0]
				if other == u {
					other = d.edges[ei][1]
				}
				if gone[other] {
					continue
				}
				curEdges--
				if w := weight[other]; w > 0 {
					i := int(pos[other])
					e := h[i]
					e.deg--
					e.key = float64(e.deg) / w
					h.up(i, e, pos)
				}
			}
		}
		after[step-1] = int32(curEdges)
		curWeight = lighten(curWeight, weight[u], unpaid-step)
		if denser(curEdges, curWeight, bestEdges, bestWeight) {
			bestEdges, bestWeight, bestStep = curEdges, curWeight, step
		}
	}
	sc.order, sc.after, sc.heap, sc.pos, sc.gone = order, after, h[:0], pos, gone
	return d.snapshot(bestEdges, order[:bestStep], after[:bestStep], 0, gone)
}

// Replay returns what Solve would return now — same Members, EdgeCnt,
// Weight bits and prefix — without peeling, given that prev is d's latest
// Solve or Replay result and that since then d changed in exactly the
// way committing prev changes it: every member's weight zeroed and every
// live element with both endpoints among the members removed. A peel
// would then pop exactly prev.Peeled, leaving prev.EdgeCnt fewer elements
// after each step (DESIGN.md §14 has the argument). Any other mutation
// since prev invalidates the prefix: Solve instead.
func (d *Decremental) Replay(prev Result, sc *Scratch) Result {
	if sc == nil {
		sc = &Scratch{}
	}
	if d.n == 0 {
		return Result{}
	}
	curWeight := 0.0
	for _, w := range d.weight {
		curWeight += w
	}
	shift := int32(prev.EdgeCnt)
	unpaid := len(prev.Peeled)
	bestEdges, bestWeight, bestStep := d.live, curWeight, 0
	for k, u := range prev.Peeled {
		curEdges := int(prev.EdgesAfter[k] - shift)
		curWeight = lighten(curWeight, d.weight[u], unpaid-k-1)
		if denser(curEdges, curWeight, bestEdges, bestWeight) {
			bestEdges, bestWeight, bestStep = curEdges, curWeight, k+1
		}
	}
	gone := grow(sc.gone, d.n)
	sc.gone = gone
	return d.snapshot(bestEdges, prev.Peeled[:bestStep], prev.EdgesAfter[:bestStep], shift, gone)
}

// lighten is the float step Solve and Replay share: the weight left after
// removing a vertex of weight w, with unpaid vertices still to go. It
// snaps to exact zero once they are all gone; accumulated float error
// must not mask an infinite-density (free-coverage) subgraph.
func lighten(cur, w float64, unpaid int) float64 {
	cur -= w
	if unpaid == 0 || cur < 0 {
		return 0
	}
	return cur
}

// snapshot builds the result reached by removing peeled, with edges live
// elements left: Members is every other vertex in id order, Peeled and
// EdgesAfter copy peeled and after − shift, all in one allocation.
func (d *Decremental) snapshot(edges int, peeled, after []int32, shift int32, gone []bool) Result {
	best := Result{EdgeCnt: edges}
	clear(gone)
	for _, u := range peeled {
		gone[u] = true
	}
	k := d.n - len(peeled)
	buf := make([]int32, k, d.n+len(peeled))
	best.Members = buf[:0:k]
	// Recompute weight exactly from the members: the incremental subtraction
	// can drift by a few ulps, and callers compare densities exactly.
	for u, out := range gone {
		if !out {
			best.Members = append(best.Members, int32(u))
			best.Weight += d.weight[u]
		}
	}
	buf = append(buf, peeled...)
	best.Peeled = buf[k:d.n:d.n]
	for _, e := range after {
		buf = append(buf, e-shift)
	}
	best.EdgesAfter = buf[d.n:]
	return best
}

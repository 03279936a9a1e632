// Package incremental maintains a request schedule under graph updates
// (§3.3). Added edges are covered through an existing hub when one is
// already paid for (the O(degree) membership check), and served directly
// with the cheaper of push and pull otherwise; when a support edge of a
// hub is removed, every edge covered through that support is re-served
// directly. Rate updates reprice the affected assignments in place.
//
// The maintainer keeps a RUNNING cost — every mutation adjusts it by its
// exact delta, so Cost() is O(1) and an online scheduler can track drift
// per operation. Patching is still greedy and quality drifts away from
// the CHITCHAT/NOSY optimum over time; package online watches that drift
// and wins it back with localized re-solves, using Rebase to materialize
// the live graph and schedule.
//
// Edge identity: every edge the maintainer has seen has one id. Base
// edges keep their graph.EdgeID; the i-th edge added beyond the base graph
// is NumEdges(base)+i, and keeps only its endpoints. The flags and hub of
// every edge, base or added, sit in two flat arrays under that id. A
// removed edge's flags are gone, which carries no push, pull or covered
// bit, so no liveness test is needed where a flag is read; re-adding an
// edge revives it under its old id. Coverage supports are always base
// edges (the membership check only considers them), which keeps hub
// lookups on the immutable CSR structure.
package incremental

import (
	"fmt"
	"slices"

	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

// gone is the flags of a removed edge: a value no schedule writes, with
// none of the push, pull and covered bits. A live edge with no flags at
// all is unserved, not removed.
const gone core.Flag = 1 << 7

// Maintainer wraps an optimized schedule over a base graph and applies
// edge additions/removals and rate updates without re-optimizing.
type Maintainer struct {
	live
	r *workload.Rates

	// deps[e] lists covered edges whose hub relies on base support edge e
	// (the push x → w or the pull w → y realizing the hub).
	deps [][]graph.EdgeID

	addedID map[graph.Edge]graph.EdgeID
	// addedOut/addedIn index added edges by endpoint so rate updates
	// reprice in O(degree) instead of scanning every edge ever added.
	// Entries persist across removal and revival, as the id does.
	addedOut map[graph.NodeID][]graph.EdgeID
	addedIn  map[graph.NodeID][]graph.EdgeID

	cost float64 // running schedule cost, maintained per mutation

	// OnRescue, when set, is called for every covered edge re-served
	// directly because a hub support disappeared — u → v is the rescued
	// edge and cost the direct-service cost it now pays. The online
	// drift tracker charges exactly this mass to the region.
	OnRescue func(u, v graph.NodeID, cost float64)
}

// live is the part of a maintainer that says which edges are live and how
// each is served: everything Rebase reads.
type live struct {
	g     *graph.Graph
	added []graph.Edge   // endpoints of the added edges, by id − NumEdges(g)
	flags []core.Flag    // by id; gone on a removed edge
	hubs  []graph.NodeID // by id; the hub of a covered edge, else -1
	n     int            // live edges
}

// Frozen is a maintainer's live edge set and assignments at one moment,
// detached from it: the base graph shared, the rest copied. Its Rebase
// returns what the maintainer's returned at that moment, and may run on
// another goroutine while the maintainer takes further updates.
type Frozen struct{ live }

// Freeze copies what Rebase reads into f and returns it: the flags and hub
// of every edge and the added edges' endpoints — flat copies, where Rebase
// builds a CSR graph. f's arrays are reused where they are large enough,
// so a caller that freezes again into the Frozen it is done with allocates
// nothing once they have grown; a nil f allocates.
func (m *Maintainer) Freeze(f *Frozen) *Frozen {
	if f == nil {
		f = &Frozen{}
	}
	f.live = live{
		g:     m.g,
		added: append(f.added[:0], m.added...),
		flags: append(f.flags[:0], m.flags...),
		hubs:  append(f.hubs[:0], m.hubs...),
		n:     m.n,
	}
	return f
}

// Rebase materializes the frozen state as Maintainer.Rebase does.
func (f *Frozen) Rebase() (*graph.Graph, *core.Schedule) { return f.rebase() }

// New builds a maintainer over an already-optimized schedule. The
// schedule's assignments are copied and it is otherwise not modified, but
// its support table is taken (core.Schedule.TakeSupports): the one a
// splice and the refine sweep after it handed over, or one walked now. The
// rates are retained (not copied): UpdateRates mutates them in place.
func New(s *core.Schedule, r *workload.Rates) *Maintainer {
	g := s.Graph()
	sup := s.TakeSupports()
	// Room for added edges, so that the first adds do not copy both arrays
	// (≈ 0.5 ms at 120k edges, a third of a 1000-op churn round).
	n, room := g.NumEdges(), g.NumEdges()+g.NumEdges()/8
	m := &Maintainer{
		live: live{
			g:     g,
			flags: make([]core.Flag, n, room),
			hubs:  make([]graph.NodeID, n, room),
			n:     n,
		},
		r:        r,
		deps:     make([][]graph.EdgeID, n),
		addedID:  make(map[graph.Edge]graph.EdgeID),
		addedOut: make(map[graph.NodeID][]graph.EdgeID),
		addedIn:  make(map[graph.NodeID][]graph.EdgeID),
	}
	// Allocate once, fill: every support's list is a window of one backing
	// array, capped at its count in the table, so a later cover that
	// outgrows a list reallocates that list alone. The lists fill in edge
	// order, each covered edge entering its up list before its down list.
	total := 0
	for _, c := range sup.Pinned {
		total += int(c)
	}
	backing := make([]graph.EdgeID, total)
	off := 0
	for e, c := range sup.Pinned {
		if c > 0 {
			m.deps[e] = backing[off : off : off+int(c)]
			off += int(c)
		}
	}
	g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		m.hubs[e] = s.Hub(e)
		if s.IsPush(e) {
			m.flags[e] |= core.FlagPush
			m.cost += r.Prod[u]
		}
		if s.IsPull(e) {
			m.flags[e] |= core.FlagPull
			m.cost += r.Cons[v]
		}
		if !s.IsCovered(e) {
			return true
		}
		m.flags[e] |= core.FlagCovered
		if up := sup.Up[e]; up >= 0 {
			m.deps[up] = append(m.deps[up], e)
		}
		if down := sup.Down[e]; down >= 0 {
			m.deps[down] = append(m.deps[down], e)
		}
		return true
	})
	return m
}

// baseM returns the id boundary: ids below it are base edges.
func (m *live) baseM() graph.EdgeID { return graph.EdgeID(m.g.NumEdges()) }

// endpoints returns the endpoints of edge id d.
func (m *live) endpoints(d graph.EdgeID) (u, v graph.NodeID) {
	if d < m.baseM() {
		return m.g.EdgeSource(d), m.g.EdgeTarget(d)
	}
	x := m.added[d-m.baseM()]
	return x.From, x.To
}

// id returns the id of u → v, live or removed, if the maintainer has seen
// the edge.
func (m *Maintainer) id(u, v graph.NodeID) (graph.EdgeID, bool) {
	if e, ok := m.g.EdgeID(u, v); ok {
		return e, true
	}
	d, ok := m.addedID[graph.Edge{From: u, To: v}]
	return d, ok
}

// NumEdges returns the number of live edges (base minus removed plus
// live additions).
func (m *live) NumEdges() int { return m.n }

// findHub looks for an existing hub already able to cover u → v for
// free: a node w with a live base push edge u → w and a live base pull
// edge w → v. It scans the smaller of u's out-neighborhood and v's
// in-neighborhood — O(degree) with an O(log degree) opposite-side lookup
// per candidate — and returns the lowest such w, so the choice is
// deterministic. Added support edges are not considered: coverage
// supports stay on the immutable CSR structure.
func (m *Maintainer) findHub(u, v graph.NodeID) (w graph.NodeID, up, down graph.EdgeID, ok bool) {
	if m.g.OutDegree(u) <= m.g.InDegree(v) {
		lo, hi := m.g.OutEdgeRange(u)
		targets := m.g.OutNeighbors(u)
		for e := lo; e < hi; e++ {
			cand := targets[e-lo]
			if cand == v || m.flags[e]&core.FlagPush == 0 {
				continue
			}
			de, found := m.g.EdgeID(cand, v)
			if found && m.flags[de]&core.FlagPull != 0 {
				return cand, e, de, true
			}
		}
		return 0, 0, 0, false
	}
	ids := m.g.InEdgeIDs(v)
	for i, cand := range m.g.InNeighbors(v) {
		e := ids[i]
		if cand == u || m.flags[e]&core.FlagPull == 0 {
			continue
		}
		ue, found := m.g.EdgeID(u, cand)
		if found && m.flags[ue]&core.FlagPush != 0 {
			return cand, ue, e, true
		}
	}
	return 0, 0, 0, false
}

// cover records coverage of edge d through hub w with base supports
// up/down, registering the dependency entries so a later support removal
// rescues d.
func (m *Maintainer) cover(d graph.EdgeID, w graph.NodeID, up, down graph.EdgeID) {
	m.flags[d] |= core.FlagCovered
	m.hubs[d] = w
	m.deps[up] = append(m.deps[up], d)
	m.deps[down] = append(m.deps[down], d)
}

// serveDirect serves edge d = u → v with the cheaper of push and pull and
// returns the cost it added.
func (m *Maintainer) serveDirect(d graph.EdgeID, u, v graph.NodeID) float64 {
	if m.r.Prod[u] <= m.r.Cons[v] {
		m.flags[d] |= core.FlagPush
		return m.r.Prod[u]
	}
	m.flags[d] |= core.FlagPull
	return m.r.Cons[v]
}

// serveNew assigns a newly live edge d = u → v: free hub coverage through
// an already-paid hub when one exists (§3.3 extended by the membership
// check), direct service otherwise. Updates the running cost.
func (m *Maintainer) serveNew(d graph.EdgeID, u, v graph.NodeID) {
	if w, up, down, ok := m.findHub(u, v); ok {
		m.cover(d, w, up, down)
		return
	}
	m.cost += m.serveDirect(d, u, v)
}

// AddEdge inserts the edge u → v. If an existing hub already has a paid
// push u → w and pull w → v, the edge is covered through it at zero
// marginal cost; otherwise it is served directly with the cheaper of
// push and pull (§3.3). Re-adding a removed edge revives it under its
// old id. Adding an existing live edge is an error.
func (m *Maintainer) AddEdge(u, v graph.NodeID) error {
	if u == v {
		return fmt.Errorf("incremental: self-loop %d→%d", u, v)
	}
	if int(u) >= m.g.NumNodes() || int(v) >= m.g.NumNodes() || u < 0 || v < 0 {
		return fmt.Errorf("incremental: edge %d→%d out of range", u, v)
	}
	d, ok := m.id(u, v)
	if !ok {
		d = graph.EdgeID(len(m.flags))
		key := graph.Edge{From: u, To: v}
		m.added = append(m.added, key)
		m.flags = append(m.flags, gone)
		m.hubs = append(m.hubs, -1)
		m.addedID[key] = d
		m.addedOut[u] = append(m.addedOut[u], d)
		m.addedIn[v] = append(m.addedIn[v], d)
	} else if m.flags[d] != gone {
		return fmt.Errorf("incremental: edge %d→%d already present", u, v)
	}
	m.flags[d] = 0
	m.n++
	m.serveNew(d, u, v)
	return nil
}

// RemoveEdge deletes the edge u → v. If the edge supported hubs (as a
// push into the hub or the hub's pull), every edge covered through it is
// migrated to another already-paid hub when one brackets it, and
// re-served directly otherwise. Dep lists are pruned as coverage
// dissolves — a rescued (or removed) covered edge leaves the dep list of
// its other support too — so the index stays bounded by the live covered
// set across arbitrarily long add/remove sequences.
func (m *Maintainer) RemoveEdge(u, v graph.NodeID) error {
	if int(u) >= m.g.NumNodes() || int(v) >= m.g.NumNodes() || u < 0 || v < 0 {
		return fmt.Errorf("incremental: edge %d→%d out of range", u, v)
	}
	e, ok := m.id(u, v)
	if !ok || m.flags[e] == gone {
		return fmt.Errorf("incremental: edge %d→%d not present", u, v)
	}
	if m.flags[e]&core.FlagPush != 0 {
		m.cost -= m.r.Prod[u]
	}
	if m.flags[e]&core.FlagPull != 0 {
		m.cost -= m.r.Cons[v]
	}
	if m.flags[e]&core.FlagCovered != 0 {
		// The removed edge no longer needs its hub; unlink it from both
		// support dep lists so they cannot accumulate dead entries.
		m.unlinkCovered(e, -1)
	}
	m.flags[e] = gone
	m.n--
	if e >= m.baseM() {
		return nil // an added edge supports no hub
	}
	for _, d := range m.deps[e] {
		if m.flags[d]&core.FlagCovered == 0 {
			continue
		}
		// Only rescue edges whose hub actually used e as support; deps may
		// be stale if d was already re-served and re-covered (it cannot be
		// re-covered by this maintainer, but stay defensive).
		m.unlinkCovered(d, e)
		if m.flags[d]&(core.FlagPush|core.FlagPull) != 0 {
			continue // already pushed or pulled; losing coverage costs nothing
		}
		du, dv := m.endpoints(d)
		if w, up, down, ok := m.findHub(du, dv); ok {
			// Another hub already brackets the orphaned edge: migrate the
			// coverage for free instead of paying for direct service.
			m.cover(d, w, up, down)
			continue
		}
		added := m.serveDirect(d, du, dv)
		m.cost += added
		if m.OnRescue != nil {
			m.OnRescue(du, dv, added)
		}
	}
	m.deps[e] = nil
	return nil
}

// UpdateRates replaces user u's production and consumption rates,
// repricing every live assignment that reads them: pushes out of u pay
// Prod[u], pulls into u pay Cons[u]. O(degree of u, base and added). The
// rates object passed to New is mutated in place, so schedules sharing
// it observe the new rates too.
func (m *Maintainer) UpdateRates(u graph.NodeID, prod, cons float64) error {
	if int(u) >= m.g.NumNodes() || u < 0 {
		return fmt.Errorf("incremental: user %d out of range", u)
	}
	if !workload.ValidRate(prod) || !workload.ValidRate(cons) {
		return fmt.Errorf("incremental: invalid rates prod=%v cons=%v", prod, cons)
	}
	dP := prod - m.r.Prod[u]
	dC := cons - m.r.Cons[u]
	lo, hi := m.g.OutEdgeRange(u)
	for e := lo; e < hi; e++ {
		if m.flags[e]&core.FlagPush != 0 {
			m.cost += dP
		}
	}
	for _, e := range m.g.InEdgeIDs(u) {
		if m.flags[e]&core.FlagPull != 0 {
			m.cost += dC
		}
	}
	for _, d := range m.addedOut[u] {
		if m.flags[d]&core.FlagPush != 0 {
			m.cost += dP
		}
	}
	for _, d := range m.addedIn[u] {
		if m.flags[d]&core.FlagPull != 0 {
			m.cost += dC
		}
	}
	m.r.Prod[u] = prod
	m.r.Cons[u] = cons
	return nil
}

// unlinkCovered dissolves the hub coverage of edge d: it is pruned from
// the dep lists of its hub's support edges (except skip, the support
// currently being torn down wholesale by the caller) and loses its
// covered mark.
func (m *Maintainer) unlinkCovered(d, skip graph.EdgeID) {
	w := m.hubs[d]
	du, dv := m.endpoints(d)
	if up, ok := m.g.EdgeID(du, w); ok && up != skip {
		m.pruneDep(up, d)
	}
	if down, ok := m.g.EdgeID(w, dv); ok && down != skip {
		m.pruneDep(down, d)
	}
	m.flags[d] &^= core.FlagCovered
	m.hubs[d] = -1
}

// pruneDep removes d from deps[support] (order within a list is not
// meaningful).
func (m *Maintainer) pruneDep(support, d graph.EdgeID) {
	list := m.deps[support]
	for i, x := range list {
		if x == d {
			list[i] = list[len(list)-1]
			m.deps[support] = list[:len(list)-1]
			return
		}
	}
}

// Cost returns the throughput cost of the maintained schedule over the
// live edge set. It is a running value adjusted by every mutation —
// O(1), so an online scheduler can consult it per operation. Rebase plus
// core.Schedule.Cost recomputes it from scratch; the two agree up to
// floating-point accumulation.
func (m *Maintainer) Cost() float64 { return m.cost }

// SetRates points the maintainer at r, which must hold the values it
// prices against now: nothing is repriced. A maintainer built on a private
// copy of the rates, and kept in step with it by the same UpdateRates
// calls, hands over to the shared object this way.
func (m *Maintainer) SetRates(r *workload.Rates) { m.r = r }

// liveEdges calls fn for every live edge in ascending (source, target)
// order, which is the edge-id order of the graph Rebase builds.
//
// The live set is the base CSR, already in edge-id order, minus the
// removed edges, plus the live added edges, which are never base edges
// (AddEdge revives those under their base id). Merging the two sorted runs
// emits every live edge once in that order: no lookup, and a sort of the
// added edges only.
func (m *live) liveEdges(fn func(u, v graph.NodeID, f core.Flag, hub graph.NodeID)) {
	base := m.baseM()
	added := make([]graph.EdgeID, 0, len(m.added))
	for d := base; int(d) < len(m.flags); d++ {
		if m.flags[d] != gone {
			added = append(added, d)
		}
	}
	slices.SortFunc(added, func(a, b graph.EdgeID) int { return m.added[a-base].Compare(m.added[b-base]) })
	emitAddedBefore := func(next graph.Edge) {
		for len(added) > 0 && m.added[added[0]-base].Compare(next) < 0 {
			d := added[0]
			added = added[1:]
			x := m.added[d-base]
			fn(x.From, x.To, m.flags[d], m.hubs[d])
		}
	}
	m.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if m.flags[e] == gone {
			return true
		}
		emitAddedBefore(graph.Edge{From: u, To: v})
		fn(u, v, m.flags[e], m.hubs[e])
		return true
	})
	emitAddedBefore(graph.Edge{From: graph.NodeID(m.g.NumNodes())})
}

// FreshCost prices the live assignments from scratch, in the order of the
// graph Rebase builds and the way core.Schedule.Cost sums: what Cost
// tracks, without the rounding its running sum has gathered. Two
// maintainers holding the same assignments on the same live edge set return
// the same bits, whatever base graphs they grew from.
func (m *Maintainer) FreshCost() float64 {
	total := 0.0
	m.liveEdges(func(u, v graph.NodeID, f core.Flag, _ graph.NodeID) {
		if f&core.FlagPush != 0 {
			total += m.r.Prod[u]
		}
		if f&core.FlagPull != 0 {
			total += m.r.Cons[v]
		}
	})
	return total
}

// Rebase materializes the live edge set into a fresh CSR graph and a
// schedule over it mirroring the maintained assignments — the handoff
// point from cheap greedy patching to a (localized) re-solve. Every live
// edge keeps its flags; coverage carries over because the maintainer's
// invariant guarantees hub supports of live covered edges are live. The
// maintainer itself is not modified.
func (m *Maintainer) Rebase() (*graph.Graph, *core.Schedule) { return m.rebase() }

// rebase is Rebase over the live state alone. An edge's new id is its
// position in liveEdges' order, so its flags and hub ride along.
func (m *live) rebase() (*graph.Graph, *core.Schedule) {
	n := m.NumEdges()
	b := graph.NewBuilder(m.g.NumNodes())
	flags := make([]core.Flag, 0, n)
	hubs := make([]graph.NodeID, 0, n)
	m.liveEdges(func(u, v graph.NodeID, f core.Flag, hub graph.NodeID) {
		b.AddEdge(u, v)
		flags = append(flags, f)
		hubs = append(hubs, hub)
	})

	ng := b.Build()
	ns := core.NewSchedule(ng)
	for e, f := range flags {
		if f&core.FlagPush != 0 {
			ns.SetPush(graph.EdgeID(e))
		}
		if f&core.FlagPull != 0 {
			ns.SetPull(graph.EdgeID(e))
		}
		if f&core.FlagCovered != 0 {
			ns.SetCovered(graph.EdgeID(e), hubs[e])
		}
	}
	return ng, ns
}

// Validate checks bounded staleness over the live edge set: every live
// edge is pushed, pulled, or covered by a hub whose support edges are
// live and scheduled correctly.
func (m *Maintainer) Validate() error {
	for i, f := range m.flags {
		if f == gone || f&(core.FlagPush|core.FlagPull) != 0 {
			continue
		}
		d := graph.EdgeID(i)
		u, v := m.endpoints(d)
		if f&core.FlagCovered == 0 {
			return fmt.Errorf("incremental: live edge %d→%d unserved", u, v)
		}
		if !m.supportsLive(u, v, m.hubs[d]) {
			return fmt.Errorf("incremental: live edge %d→%d has broken hub %d", u, v, m.hubs[d])
		}
	}
	return nil
}

// supportsLive reports whether hub w's support edges for covering u → v
// are live base edges with the required flags.
func (m *Maintainer) supportsLive(u, v, w graph.NodeID) bool {
	up, ok1 := m.g.EdgeID(u, w)
	down, ok2 := m.g.EdgeID(w, v)
	return ok1 && ok2 && m.flags[up]&core.FlagPush != 0 && m.flags[down]&core.FlagPull != 0
}

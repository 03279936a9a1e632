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
// Edge identity: base edges keep their graph.EdgeID; edges added beyond
// the base graph live in an extra table and are addressed by the unified
// id NumEdges()+index, so the support-dependency index can reference
// both kinds. Coverage supports are always base edges (the membership
// check only considers them), which keeps hub lookups on the immutable
// CSR structure.
package incremental

import (
	"fmt"
	"math"
	"slices"

	"piggyback/internal/bitset"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/workload"
)

// Maintainer wraps an optimized schedule over a base graph and applies
// edge additions/removals and rate updates without re-optimizing.
type Maintainer struct {
	live
	r *workload.Rates

	// deps[e] lists covered edges (unified ids) whose hub relies on base
	// support edge e (the push x → w or the pull w → y realizing the hub).
	deps [][]graph.EdgeID

	extraIndex map[graph.Edge]int
	// extraOut/extraIn index extra-edge slots by endpoint so rate
	// updates reprice in O(degree) instead of scanning every extra edge
	// ever added. Entries persist across removal/revival (the slot does
	// too); scans skip removed slots.
	extraOut map[graph.NodeID][]int32
	extraIn  map[graph.NodeID][]int32

	cost    float64 // running schedule cost, maintained per mutation
	covered int     // live covered edges (base + extra)

	// OnRescue, when set, is called for every covered edge re-served
	// directly because a hub support disappeared — u → v is the rescued
	// edge and cost the direct-service cost it now pays. The online
	// drift tracker charges exactly this mass to the region.
	OnRescue func(u, v graph.NodeID, cost float64)
}

// live is the part of a maintainer that says which edges are live and how
// each is served: everything Rebase reads.
type live struct {
	g         *graph.Graph
	sched     *core.Schedule
	removed   *bitset.Set // removed base edges
	extra     []extraEdge
	liveExtra int
}

// Frozen is a maintainer's live edge set and assignments at one moment,
// detached from it: the base graph shared, the rest copied. Its Rebase
// returns what the maintainer's returned at that moment, and may run on
// another goroutine while the maintainer takes further updates.
type Frozen struct{ live }

// Freeze copies what Rebase reads into f and returns it: the flags and
// hubs, the removed set and the extras — flat copies, where Rebase builds a
// CSR graph. f's arrays are reused where they are large enough, so a caller
// that freezes again into the Frozen it is done with allocates nothing once
// they have grown; a nil f allocates.
func (m *Maintainer) Freeze(f *Frozen) *Frozen {
	if f == nil {
		f = &Frozen{}
	}
	f.live = live{
		g:         m.g,
		sched:     m.sched.CloneInto(f.sched),
		removed:   m.removed.CloneInto(f.removed),
		extra:     append(f.extra[:0], m.extra...),
		liveExtra: m.liveExtra,
	}
	return f
}

// Rebase materializes the frozen state as Maintainer.Rebase does.
func (f *Frozen) Rebase() (*graph.Graph, *core.Schedule) { return f.rebase() }

// extraEdge is an edge added beyond the base graph: served directly
// (push or pull flag) or covered through hub (coverage supports are base
// edges).
type extraEdge struct {
	edge    graph.Edge
	flags   core.Flag
	hub     graph.NodeID
	removed bool
}

// New builds a maintainer over an already-optimized schedule. The
// schedule is cloned and otherwise not modified, but its support table is
// taken (core.Schedule.TakeSupports): the one a splice and the refine
// sweep after it handed over, or one walked now. The rates are retained
// (not copied): UpdateRates mutates them in place.
func New(s *core.Schedule, r *workload.Rates) *Maintainer {
	g := s.Graph()
	sup := s.TakeSupports()
	m := &Maintainer{
		live:       live{g: g, sched: s.Clone(), removed: bitset.New(g.NumEdges())},
		r:          r,
		deps:       make([][]graph.EdgeID, g.NumEdges()),
		extraIndex: make(map[graph.Edge]int),
		extraOut:   make(map[graph.NodeID][]int32),
		extraIn:    make(map[graph.NodeID][]int32),
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
		if m.sched.IsPush(e) {
			m.cost += r.Prod[u]
		}
		if m.sched.IsPull(e) {
			m.cost += r.Cons[v]
		}
		if !m.sched.IsCovered(e) {
			return true
		}
		m.covered++
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

// baseM returns the unified-id boundary: ids below it are base edges.
func (m *live) baseM() graph.EdgeID { return graph.EdgeID(m.g.NumEdges()) }

// endpoints returns the endpoints of a unified edge id.
func (m *Maintainer) endpoints(d graph.EdgeID) (u, v graph.NodeID) {
	if d < m.baseM() {
		return m.g.EdgeSource(d), m.g.EdgeTarget(d)
	}
	x := m.extra[d-m.baseM()].edge
	return x.From, x.To
}

// coveredHub returns the hub of a covered unified edge, or -1.
func (m *Maintainer) coveredHub(d graph.EdgeID) graph.NodeID {
	if d < m.baseM() {
		if !m.sched.IsCovered(d) {
			return -1
		}
		return m.sched.Hub(d)
	}
	x := &m.extra[d-m.baseM()]
	if x.flags&core.FlagCovered == 0 {
		return -1
	}
	return x.hub
}

// hasDirectFlag reports whether a unified edge id already carries a
// push or pull mark (a covered edge that is also a hub support, say) —
// such an edge is served even without its coverage.
func (m *Maintainer) hasDirectFlag(d graph.EdgeID) bool {
	if d < m.baseM() {
		return m.sched.IsPush(d) || m.sched.IsPull(d)
	}
	return m.extra[d-m.baseM()].flags&(core.FlagPush|core.FlagPull) != 0
}

// isLive reports whether a unified edge id refers to a live edge.
func (m *Maintainer) isLive(d graph.EdgeID) bool {
	if d < m.baseM() {
		return !m.removed.Test(int(d))
	}
	return !m.extra[d-m.baseM()].removed
}

// NumEdges returns the number of live edges (base minus removed plus
// live additions).
func (m *live) NumEdges() int {
	return m.g.NumEdges() - m.removed.Count() + m.liveExtra
}

// CoveredCount returns the number of live covered edges — the quantity
// that bounds the support-dependency index (each covered edge appears in
// at most two dep lists).
func (m *Maintainer) CoveredCount() int { return m.covered }

// findHub looks for an existing hub already able to cover u → v for
// free: a node w with a live base push edge u → w and a live base pull
// edge w → v. It scans the smaller of u's out-neighborhood and v's
// in-neighborhood — O(degree) with an O(log degree) opposite-side lookup
// per candidate — and returns the lowest such w, so the choice is
// deterministic. Extra (non-base) support edges are not considered:
// coverage supports stay on the immutable CSR structure.
func (m *Maintainer) findHub(u, v graph.NodeID) (w graph.NodeID, up, down graph.EdgeID, ok bool) {
	if m.g.OutDegree(u) <= m.g.InDegree(v) {
		lo, hi := m.g.OutEdgeRange(u)
		targets := m.g.OutNeighbors(u)
		for e := lo; e < hi; e++ {
			cand := targets[e-lo]
			if cand == v || m.removed.Test(int(e)) || !m.sched.IsPush(e) {
				continue
			}
			de, found := m.g.EdgeID(cand, v)
			if found && !m.removed.Test(int(de)) && m.sched.IsPull(de) {
				return cand, e, de, true
			}
		}
		return 0, 0, 0, false
	}
	ids := m.g.InEdgeIDs(v)
	for i, cand := range m.g.InNeighbors(v) {
		e := ids[i]
		if cand == u || m.removed.Test(int(e)) || !m.sched.IsPull(e) {
			continue
		}
		ue, found := m.g.EdgeID(u, cand)
		if found && !m.removed.Test(int(ue)) && m.sched.IsPush(ue) {
			return cand, ue, e, true
		}
	}
	return 0, 0, 0, false
}

// cover records coverage of unified edge d (endpoints u → v) through hub
// w with base supports up/down, registering the dependency entries so a
// later support removal rescues d.
func (m *Maintainer) cover(d graph.EdgeID, w graph.NodeID, up, down graph.EdgeID) {
	if d < m.baseM() {
		m.sched.SetCovered(d, w)
	} else {
		x := &m.extra[d-m.baseM()]
		x.flags = core.FlagCovered
		x.hub = w
	}
	m.deps[up] = append(m.deps[up], d)
	m.deps[down] = append(m.deps[down], d)
	m.covered++
}

// serveDirect serves unified edge d with the cheaper of push and pull
// and returns the cost it added.
func (m *Maintainer) serveDirect(d graph.EdgeID, u, v graph.NodeID) float64 {
	if m.r.Prod[u] <= m.r.Cons[v] {
		if d < m.baseM() {
			m.sched.SetPush(d)
		} else {
			m.extra[d-m.baseM()].flags = core.FlagPush
		}
		return m.r.Prod[u]
	}
	if d < m.baseM() {
		m.sched.SetPull(d)
	} else {
		m.extra[d-m.baseM()].flags = core.FlagPull
	}
	return m.r.Cons[v]
}

// serveNew assigns a newly live unified edge d = u → v: free hub coverage
// through an already-paid hub when one exists (§3.3 extended by the
// membership check), direct service otherwise. Updates the running cost.
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
// push and pull (§3.3). Re-adding a removed edge revives it. Adding an
// existing live edge is an error.
func (m *Maintainer) AddEdge(u, v graph.NodeID) error {
	if u == v {
		return fmt.Errorf("incremental: self-loop %d→%d", u, v)
	}
	if int(u) >= m.g.NumNodes() || int(v) >= m.g.NumNodes() || u < 0 || v < 0 {
		return fmt.Errorf("incremental: edge %d→%d out of range", u, v)
	}
	if e, ok := m.g.EdgeID(u, v); ok {
		if !m.removed.Test(int(e)) {
			return fmt.Errorf("incremental: edge %d→%d already present", u, v)
		}
		// Revive the base edge in place.
		m.removed.Clear(int(e))
		m.sched.ClearEdge(e)
		m.serveNew(e, u, v)
		return nil
	}
	key := graph.Edge{From: u, To: v}
	if i, ok := m.extraIndex[key]; ok {
		if !m.extra[i].removed {
			return fmt.Errorf("incremental: edge %d→%d already added", u, v)
		}
		m.extra[i].removed = false
		m.extra[i].flags = 0
		m.extra[i].hub = -1
		m.liveExtra++
		m.serveNew(m.baseM()+graph.EdgeID(i), u, v)
		return nil
	}
	m.extra = append(m.extra, extraEdge{edge: key, hub: -1})
	i := len(m.extra) - 1
	m.extraIndex[key] = i
	m.extraOut[u] = append(m.extraOut[u], int32(i))
	m.extraIn[v] = append(m.extraIn[v], int32(i))
	m.liveExtra++
	m.serveNew(m.baseM()+graph.EdgeID(i), u, v)
	return nil
}

// RemoveEdge deletes the edge u → v. If the edge supported hubs (as a
// push into the hub or the hub's pull), every edge covered through it is
// migrated to another already-paid hub when one brackets it, and
// re-served directly otherwise. Dep lists are pruned as coverage
// dissolves — a
// rescued (or removed) covered edge leaves the dep list of its other
// support too — so the index stays bounded by the live covered set across
// arbitrarily long add/remove sequences.
func (m *Maintainer) RemoveEdge(u, v graph.NodeID) error {
	if int(u) >= m.g.NumNodes() || int(v) >= m.g.NumNodes() || u < 0 || v < 0 {
		return fmt.Errorf("incremental: edge %d→%d out of range", u, v)
	}
	key := graph.Edge{From: u, To: v}
	if i, ok := m.extraIndex[key]; ok && !m.extra[i].removed {
		x := &m.extra[i]
		switch {
		case x.flags&core.FlagCovered != 0:
			m.unlinkCovered(m.baseM()+graph.EdgeID(i), -1)
		case x.flags&core.FlagPush != 0:
			m.cost -= m.r.Prod[u]
		case x.flags&core.FlagPull != 0:
			m.cost -= m.r.Cons[v]
		}
		x.removed = true
		x.flags = 0
		x.hub = -1
		m.liveExtra--
		return nil
	}
	e, ok := m.g.EdgeID(u, v)
	if !ok || m.removed.Test(int(e)) {
		return fmt.Errorf("incremental: edge %d→%d not present", u, v)
	}
	m.removed.Set(int(e))
	if m.sched.IsPush(e) {
		m.cost -= m.r.Prod[u]
	}
	if m.sched.IsPull(e) {
		m.cost -= m.r.Cons[v]
	}
	if m.sched.IsCovered(e) {
		// The removed edge no longer needs its hub; unlink it from both
		// support dep lists so they cannot accumulate dead entries.
		m.unlinkCovered(e, -1)
	}
	for _, d := range m.deps[e] {
		if !m.isLive(d) || m.coveredHub(d) < 0 {
			continue
		}
		// Only rescue edges whose hub actually used e as support; deps may
		// be stale if d was already re-served and re-covered (it cannot be
		// re-covered by this maintainer, but stay defensive).
		m.unlinkCovered(d, e)
		if m.hasDirectFlag(d) {
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
	// The removed edge's flags stay recorded in the schedule but are
	// ignored everywhere (cost, validation, rebase) until a revival
	// resets them.
	return nil
}

// UpdateRates replaces user u's production and consumption rates,
// repricing every live assignment that reads them: pushes out of u pay
// Prod[u], pulls into u pay Cons[u]. O(degree of u, base and extra). The
// rates object passed to New is mutated in place, so schedules sharing
// it observe the new rates too.
func (m *Maintainer) UpdateRates(u graph.NodeID, prod, cons float64) error {
	if int(u) >= m.g.NumNodes() || u < 0 {
		return fmt.Errorf("incremental: user %d out of range", u)
	}
	if prod < 0 || cons < 0 || math.IsNaN(prod) || math.IsNaN(cons) ||
		math.IsInf(prod, 0) || math.IsInf(cons, 0) {
		return fmt.Errorf("incremental: invalid rates prod=%v cons=%v", prod, cons)
	}
	dP := prod - m.r.Prod[u]
	dC := cons - m.r.Cons[u]
	lo, hi := m.g.OutEdgeRange(u)
	for e := lo; e < hi; e++ {
		if !m.removed.Test(int(e)) && m.sched.IsPush(e) {
			m.cost += dP
		}
	}
	for _, e := range m.g.InEdgeIDs(u) {
		if !m.removed.Test(int(e)) && m.sched.IsPull(e) {
			m.cost += dC
		}
	}
	for _, i := range m.extraOut[u] {
		x := &m.extra[i]
		if !x.removed && x.flags&core.FlagPush != 0 {
			m.cost += dP
		}
	}
	for _, i := range m.extraIn[u] {
		x := &m.extra[i]
		if !x.removed && x.flags&core.FlagPull != 0 {
			m.cost += dC
		}
	}
	m.r.Prod[u] = prod
	m.r.Cons[u] = cons
	return nil
}

// unlinkCovered dissolves the hub coverage of unified edge d: it is
// pruned from the dep lists of its hub's support edges (except skip, the
// support currently being torn down wholesale by the caller) and loses
// its covered mark.
func (m *Maintainer) unlinkCovered(d, skip graph.EdgeID) {
	w := m.coveredHub(d)
	du, dv := m.endpoints(d)
	if up, ok := m.g.EdgeID(du, w); ok && up != skip {
		m.pruneDep(up, d)
	}
	if down, ok := m.g.EdgeID(w, dv); ok && down != skip {
		m.pruneDep(down, d)
	}
	if d < m.baseM() {
		m.sched.ClearCovered(d)
	} else {
		x := &m.extra[d-m.baseM()]
		x.flags &^= core.FlagCovered
		x.hub = -1
	}
	m.covered--
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

// DepEntries returns the total number of dep-list entries — the index the
// maintainer keeps from support edges to the covered edges relying on
// them. With pruning it is bounded by twice the number of live covered
// edges; exposed for tests and capacity monitoring.
func (m *Maintainer) DepEntries() int {
	total := 0
	for _, list := range m.deps {
		total += len(list)
	}
	return total
}

// Cost returns the throughput cost of the maintained schedule over the
// live edge set. It is a running value adjusted by every mutation —
// O(1), so an online scheduler can consult it per operation. Rebase plus
// core.Schedule.Cost recomputes it from scratch; the two agree up to
// floating-point accumulation.
func (m *Maintainer) Cost() float64 { return m.cost }

// Rates returns the workload rates the maintainer prices against (the
// object passed to New; UpdateRates mutates it).
func (m *Maintainer) Rates() *workload.Rates { return m.r }

// SetRates points the maintainer at r, which must hold the values it
// prices against now: nothing is repriced. A maintainer built on a private
// copy of the rates, and kept in step with it by the same UpdateRates
// calls, hands over to the shared object this way.
func (m *Maintainer) SetRates(r *workload.Rates) { m.r = r }

// liveEdges calls fn for every live edge in ascending (source, target)
// order, which is the edge-id order of the graph Rebase builds.
//
// The live set is the base CSR, already in edge-id order, minus the
// removed edges, plus the live extras, which are never base edges (AddEdge
// revives those in place). Merging the two sorted runs emits every live
// edge once in that order: no lookup, and a sort of the extras only.
func (m *live) liveEdges(fn func(u, v graph.NodeID, f core.Flag, hub graph.NodeID)) {
	extras := make([]*extraEdge, 0, m.liveExtra)
	for i := range m.extra {
		if x := &m.extra[i]; !x.removed {
			extras = append(extras, x)
		}
	}
	slices.SortFunc(extras, func(a, b *extraEdge) int { return a.edge.Compare(b.edge) })
	emitExtrasBefore := func(next graph.Edge) {
		for len(extras) > 0 && extras[0].edge.Compare(next) < 0 {
			x := extras[0]
			extras = extras[1:]
			fn(x.edge.From, x.edge.To, x.flags, x.hub)
		}
	}
	m.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if m.removed.Test(int(e)) {
			return true
		}
		emitExtrasBefore(graph.Edge{From: u, To: v})
		var f core.Flag
		if m.sched.IsPush(e) {
			f |= core.FlagPush
		}
		if m.sched.IsPull(e) {
			f |= core.FlagPull
		}
		if m.sched.IsCovered(e) {
			f |= core.FlagCovered
		}
		fn(u, v, f, m.sched.Hub(e))
		return true
	})
	emitExtrasBefore(graph.Edge{From: graph.NodeID(m.g.NumNodes())})
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
	var err error
	m.g.Edges(func(e graph.EdgeID, u, v graph.NodeID) bool {
		if m.removed.Test(int(e)) {
			return true
		}
		if m.sched.IsPush(e) || m.sched.IsPull(e) {
			return true
		}
		if !m.sched.IsCovered(e) {
			err = fmt.Errorf("incremental: live edge %d→%d unserved", u, v)
			return false
		}
		if !m.supportsLive(u, v, m.sched.Hub(e)) {
			err = fmt.Errorf("incremental: live edge %d→%d has broken hub %d", u, v, m.sched.Hub(e))
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, x := range m.extra {
		if x.removed {
			continue
		}
		if x.flags&(core.FlagPush|core.FlagPull) != 0 {
			continue
		}
		if x.flags&core.FlagCovered == 0 {
			return fmt.Errorf("incremental: added edge %d→%d unserved", x.edge.From, x.edge.To)
		}
		if !m.supportsLive(x.edge.From, x.edge.To, x.hub) {
			return fmt.Errorf("incremental: added edge %d→%d has broken hub %d",
				x.edge.From, x.edge.To, x.hub)
		}
	}
	return nil
}

// supportsLive reports whether hub w's support edges for covering u → v
// are live base edges with the required flags.
func (m *Maintainer) supportsLive(u, v, w graph.NodeID) bool {
	up, ok1 := m.g.EdgeID(u, w)
	down, ok2 := m.g.EdgeID(w, v)
	return ok1 && ok2 &&
		!m.removed.Test(int(up)) && !m.removed.Test(int(down)) &&
		m.sched.IsPush(up) && m.sched.IsPull(down)
}

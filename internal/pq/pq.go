// Package pq implements an indexed binary min-heap keyed by float64
// priorities. Items are dense integer ids, which lets callers decrease or
// update priorities in O(log n) — the operation CHITCHAT's lazy greedy
// needs. (The densest-subgraph peel has its own decrease-key-only heap.)
package pq

// IndexedMin is a min-priority queue over item ids 0..n-1. The zero value
// is not usable; call New.
type IndexedMin struct {
	heap []int32   // heap[i] = item id at heap position i
	pos  []int32   // pos[id] = heap position of id, or -1 if absent
	prio []float64 // prio[id] = current priority of id
}

// New returns an empty queue able to hold item ids 0..n-1.
func New(n int) *IndexedMin {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &IndexedMin{
		heap: make([]int32, 0, n),
		pos:  pos,
		prio: make([]float64, n),
	}
}

// Len returns the number of items currently queued.
func (q *IndexedMin) Len() int { return len(q.heap) }

// Contains reports whether id is queued.
func (q *IndexedMin) Contains(id int) bool { return q.pos[id] >= 0 }

// Priority returns the current priority of a queued id. Undefined if id is
// not queued.
func (q *IndexedMin) Priority(id int) float64 { return q.prio[id] }

// Push inserts id with priority p. Panics if id is already queued.
func (q *IndexedMin) Push(id int, p float64) {
	if q.pos[id] >= 0 {
		panic("pq: Push of queued id")
	}
	q.prio[id] = p
	q.pos[id] = int32(len(q.heap))
	q.heap = append(q.heap, int32(id))
	q.up(len(q.heap) - 1)
}

// Update changes the priority of a queued id (up or down), or inserts it if
// absent.
func (q *IndexedMin) Update(id int, p float64) {
	if q.pos[id] < 0 {
		q.Push(id, p)
		return
	}
	old := q.prio[id]
	q.prio[id] = p
	i := int(q.pos[id])
	if p < old {
		q.up(i)
	} else {
		q.down(i)
	}
}

// Min returns the id and priority of the minimum element without removing
// it. Panics if empty.
func (q *IndexedMin) Min() (id int, p float64) {
	id = int(q.heap[0])
	return id, q.prio[id]
}

// PopMin removes and returns the id with the minimum priority.
func (q *IndexedMin) PopMin() (id int, p float64) {
	id = int(q.heap[0])
	p = q.prio[id]
	q.removeAt(0)
	return id, p
}

// Remove deletes id from the queue if present.
func (q *IndexedMin) Remove(id int) {
	if q.pos[id] < 0 {
		return
	}
	q.removeAt(int(q.pos[id]))
}

func (q *IndexedMin) removeAt(i int) {
	last := len(q.heap) - 1
	id := q.heap[i]
	q.swap(i, last)
	q.heap = q.heap[:last]
	q.pos[id] = -1
	if i < last {
		q.down(i)
		q.up(i)
	}
}

func (q *IndexedMin) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if q.prio[a] != q.prio[b] {
		return q.prio[a] < q.prio[b]
	}
	return a < b // deterministic tie-break by id
}

func (q *IndexedMin) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i]] = int32(i)
	q.pos[q.heap[j]] = int32(j)
}

func (q *IndexedMin) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *IndexedMin) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(l, small) {
			small = l
		}
		if r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		q.swap(i, small)
		i = small
	}
}

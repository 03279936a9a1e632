package main

import (
	"fmt"
	"time"
)

// feedSize is the paper's "10 latest events" a query returns.
const feedSize = 10

// feedModel is the harness's own record of who produced what, against
// which sampled queries are checked. Events carry ID = TS = a counter
// starting at 1, so timestamps are unique and an event names itself.
type feedModel struct {
	g        *graphT
	producer []nodeID  // producer[id] of every event made so far; index 0 unused
	recent   [][]int64 // per producer, its newest event ids, newest first, at most feedSize
}

func newFeedModel(g *graphT) *feedModel {
	return &feedModel{g: g, producer: make([]nodeID, 1), recent: make([][]int64, numNodes(g))}
}

// produce makes u's next event and records it.
func (m *feedModel) produce(u nodeID) event {
	id := int64(len(m.producer))
	m.producer = append(m.producer, u)
	r := append(m.recent[u], 0)
	copy(r[1:], r)
	r[0] = id
	m.recent[u] = r[:min(len(r), feedSize)]
	return event{User: u, ID: id, TS: id}
}

// check holds a query result for u against Theorem 1 on a static plan:
// the result is real events, newest first, and no event of u or of a
// producer u follows that is newer than the oldest event returned is
// missing. The prototype does not filter hub views by who u follows, so
// events of other producers may ride along; they are allowed, and they
// are why the result is not compared for equality with the newest
// feedSize events of u's producers.
func (m *feedModel) check(u nodeID, got []event) error {
	if len(got) > feedSize {
		return fmt.Errorf("query %d: %d events, want at most %d", u, len(got), feedSize)
	}
	seen := make(map[int64]bool, len(got))
	for i, ev := range got {
		if ev.ID < 1 || ev.ID >= int64(len(m.producer)) || m.producer[ev.ID] != ev.User || ev.TS != ev.ID {
			return fmt.Errorf("query %d: event %+v was never produced", u, ev)
		}
		if i > 0 && ev.TS > got[i-1].TS {
			return fmt.Errorf("query %d: events not newest first", u)
		}
		seen[ev.ID] = true
	}
	cutoff := int64(0)
	if len(got) == feedSize {
		cutoff = got[feedSize-1].TS
	}
	missing := func(p nodeID) error {
		for _, id := range m.recent[p] {
			if id > cutoff && !seen[id] {
				return fmt.Errorf("query %d: event %d of producer %d is newer than the oldest returned (%d) and missing", u, id, p, cutoff)
			}
		}
		return nil
	}
	if err := missing(u); err != nil {
		return err
	}
	for _, p := range inNeighbors(m.g, u) {
		if err := missing(p); err != nil {
			return err
		}
	}
	return nil
}

// feedTimes is what one open-loop feed measured, per op, in ms.
type feedTimes struct {
	// lag is (op finished − op due): what a stalled consumer costs
	// every op queued behind it.
	lag []float64
	// late is (op released − op due): how late the generator itself
	// ran, which is the harness's fault and not the program's.
	late []float64
}

// openLoop releases op i at start + i/rate from a generator goroutine,
// whatever the consumer is doing, and runs consume(i) for each released
// op in order on the calling goroutine. It returns when all n ops are
// consumed.
func openLoop(n int, rate float64, consume func(i int)) feedTimes {
	ft := feedTimes{lag: make([]float64, n), late: make([]float64, n)}
	start := time.Now()
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	// Buffered to n: an open-loop generator must never wait for the
	// consumer, so the queue can hold the whole feed.
	released := make(chan int, n)
	go func() {
		for i := 0; i < n; i++ {
			time.Sleep(time.Until(due(i)))
			ft.late[i] = msSince(due(i))
			released <- i
		}
		close(released)
	}()
	for i := range released {
		consume(i)
		ft.lag[i] = msSince(due(i))
	}
	return ft
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call. Parent is the span that was open on the same goroutine when
// this one began (-1 for none); Start and End are nanoseconds since the
// tracer was made.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// thread is one goroutine's view of the tracer: its stack of open spans
// gives each new span its parent. A nil thread records nothing.
type thread struct {
	tr    *tracer
	round int
	stack []int
}

// thread returns a span stack for one goroutine, or nil when tr is nil.
func (tr *tracer) thread(round int) *thread {
	if tr == nil {
		return nil
	}
	return &thread{tr: tr, round: round}
}

// fork returns a thread for another goroutine whose spans hang under
// the span currently open on th.
func (th *thread) fork() *thread {
	if th == nil {
		return nil
	}
	child := &thread{tr: th.tr, round: th.round}
	if n := len(th.stack); n > 0 {
		child.stack = []int{th.stack[n-1]}
	}
	return child
}

func (th *thread) begin(name string) int {
	if th == nil {
		return -1
	}
	parent := -1
	if n := len(th.stack); n > 0 {
		parent = th.stack[n-1]
	}
	tr := th.tr
	tr.mu.Lock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Round: th.round,
		Start: time.Since(tr.t0).Nanoseconds()})
	tr.mu.Unlock()
	th.stack = append(th.stack, id)
	return id
}

func (th *thread) end(id int) {
	if th == nil {
		return
	}
	end := time.Since(th.tr.t0).Nanoseconds()
	th.tr.mu.Lock()
	th.tr.spans[id].End = end
	th.tr.mu.Unlock()
	th.stack = th.stack[:len(th.stack)-1]
}

// layerTotals is what a trace file reports per span name.
type layerTotals struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the time covered by child spans.
	SelfMS float64 `json:"self_ms"`
}

func (tr *tracer) totals() map[string]layerTotals {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTotals)
	for i, s := range tr.spans {
		t := out[s.Name]
		t.Count++
		t.TotalMS += float64(s.End-s.Start) / 1e6
		t.SelfMS += float64(s.End-s.Start-child[i]) / 1e6
		out[s.Name] = t
	}
	return out
}

// maxSpansPerName bounds how many spans of one name a trace file lists;
// the totals always cover every span.
const maxSpansPerName = 2000

// write stores the spans, the per-name totals and the per-layer metrics
// of one traced run. Spans and totals are wall time as measured; the
// metrics are in reference time, and the factors say by how much each
// round's differ. A span's id is its index in the full recording, so
// parents still resolve when a hot layer's spans are cut at
// maxSpansPerName.
func (tr *tracer) write(path string, metrics map[string]float64, factors []float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type fileSpan struct {
		ID int `json:"id"`
		span
	}
	var listed []fileSpan
	perName := map[string]int{}
	for i, s := range tr.spans {
		if perName[s.Name]++; perName[s.Name] <= maxSpansPerName {
			listed = append(listed, fileSpan{i, s})
		}
	}
	doc := struct {
		Layers  map[string]layerTotals `json:"layers"`
		Metrics map[string]float64     `json:"metrics"`
		Factors []float64              `json:"machine_factor_by_round"`
		Spans   []fileSpan             `json:"spans"`
	}{tr.totals(), metrics, factors, listed}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

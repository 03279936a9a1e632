package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// SpanID identifies one span. The zero value is the implicit root:
// spans begun with parent RootSpan are top-level.
type SpanID uint64

// RootSpan is the parent of top-level spans.
const RootSpan SpanID = 0

// span is one recorded Begin/End pair. Children are kept in Begin
// order, which the instrumentation discipline makes deterministic.
type span struct {
	id       SpanID
	parent   SpanID
	name     string
	attrs    string
	endAttrs string
	ended    bool
	children []*span
}

// Tracer records a DETERMINISTIC span tree. Span IDs come from a
// seeded counter mixed through splitmix64 — never wall clock, never
// randomness — so the same seed and the same Begin sequence produce
// the same IDs, and Tree() renders byte-identically run after run.
//
// The determinism contract is split between the tracer and its
// callers: the tracer guarantees IDs and rendering are pure functions
// of the Begin sequence; instrumentation guarantees the Begin sequence
// itself is deterministic by beginning spans at coordination points
// (the online daemon's re-solves are sequential by design, and one
// goroutine begins each one's spans). End may happen concurrently from
// worker goroutines — the tree orders children by Begin, not End, and
// End attributes attach per span.
//
// Wall-clock durations are deliberately carried OUT-OF-BAND
// (SetDuration, rendered only by TimedTree): the tree itself contains
// no timing, so it can be pinned byte for byte while latency still gets
// measured.
//
// A nil *Tracer is a no-op on every method — the telemetry-off path,
// allocation-free.
type Tracer struct {
	seed uint64

	mu   sync.Mutex
	seq  uint64
	tops []*span
	byID map[SpanID]*span
	durs map[SpanID]time.Duration
}

// NewTracer returns a tracer whose span IDs are derived from seed.
func NewTracer(seed int64) *Tracer {
	return &Tracer{
		seed: uint64(seed),
		byID: map[SpanID]*span{},
		durs: map[SpanID]time.Duration{},
	}
}

// splitmix64 is the SplitMix64 finalizer — a bijective mixer that
// turns the sequential seeded counter into id-looking values without
// any randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Begin opens a span under parent (RootSpan for top-level) with a
// deterministic attribute string. Attrs must not contain wall-clock or
// random content — that is what End-time SetDuration is for.
func (t *Tracer) Begin(parent SpanID, name, attrs string) SpanID {
	if t == nil {
		return RootSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	id := SpanID(splitmix64(t.seed + t.seq))
	if id == RootSpan {
		id = SpanID(splitmix64(t.seed + t.seq + 1<<63))
	}
	s := &span{id: id, parent: parent, name: name, attrs: attrs}
	t.byID[id] = s
	if p, ok := t.byID[parent]; ok && parent != RootSpan {
		p.children = append(p.children, s)
	} else {
		t.tops = append(t.tops, s)
	}
	return id
}

// End closes a span, attaching deterministic end attributes (result
// class, iteration counts, costs — never durations).
func (t *Tracer) End(id SpanID, endAttrs string) {
	if t == nil || id == RootSpan {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.byID[id]; ok {
		s.ended = true
		s.endAttrs = endAttrs
	}
}

// SetDuration records a span's wall-clock duration out-of-band: it
// never appears in Tree(), only in TimedTree().
func (t *Tracer) SetDuration(id SpanID, d time.Duration) {
	if t == nil || id == RootSpan {
		return
	}
	t.mu.Lock()
	t.durs[id] = d
	t.mu.Unlock()
}

// Tree renders the span forest: one line per span, two-space indent
// per depth, `name#id attrs -> endAttrs`, children in Begin order.
// Byte-identical across runs whenever the Begin sequence and the
// attribute strings are deterministic; contains no timing.
func (t *Tracer) Tree() string { return t.render(false) }

// TimedTree is Tree with each span's recorded wall time appended as
// `(1.234ms)`. It differs run to run; pin Tree.
func (t *Tracer) TimedTree() string { return t.render(true) }

func (t *Tracer) render(timed bool) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	var walk func(s *span, depth int)
	walk = func(s *span, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s#%016x", s.name, uint64(s.id))
		if s.attrs != "" {
			b.WriteByte(' ')
			b.WriteString(s.attrs)
		}
		if s.ended {
			if s.endAttrs != "" {
				b.WriteString(" -> ")
				b.WriteString(s.endAttrs)
			}
		} else {
			b.WriteString(" [open]")
		}
		if d, ok := t.durs[s.id]; ok && timed {
			fmt.Fprintf(&b, " (%.3fms)", float64(d)/float64(time.Millisecond))
		}
		b.WriteByte('\n')
		for _, c := range s.children {
			walk(c, depth+1)
		}
	}
	for _, s := range t.tops {
		walk(s, 0)
	}
	return b.String()
}

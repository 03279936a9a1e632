// Package telemetry is the zero-dependency observability core shared by
// every layer of the repository: a metrics registry (counters, gauges,
// fixed-bucket histograms) with a lock-free atomic hot path, and a
// DETERMINISTIC tracer whose span trees are byte-identical across runs
// and worker counts.
//
// Three design rules, argued in DESIGN.md §12:
//
//   - The off switch is nil. Every instrument method is nil-receiver
//     safe and a nil *Registry hands out nil histograms (and standalone
//     counters and gauges, never listed), so an uninstrumented hot path
//     costs one predictable nil check and zero allocations — pinned by
//     testing.AllocsPerRun.
//   - Snapshots are deterministic. Histogram bucket bounds are fixed at
//     creation (never adaptive), snapshot order is a stable sort over
//     (name, labels), and metrics that measure WALL CLOCK follow a
//     naming convention (IsTiming) so tests can compare everything
//     else byte for byte. A snapshot renders one way, as Prometheus
//     text (PromText), for /metrics and for the tests alike.
//   - Identity is a string. A metric is its name plus an ordered label
//     list, rendered once at registration; the hot path never formats.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric types in a Snapshot.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String renders the kind in Prometheus TYPE terms.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one metric dimension. Labels are part of a metric's
// identity; the same name with different labels is a different series.
type Label struct{ Key, Value string }

// Counter is a monotonically increasing integer. The zero value works
// standalone; registry-issued counters show up in snapshots. All
// methods are safe for concurrent use and a nil *Counter is a no-op —
// the telemetry-off hot path.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, stored as atomic bits.
// Nil-receiver safe like Counter.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add accumulates delta into the gauge (CAS loop, allocation-free).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into FIXED, pre-declared bucket upper
// bounds (upper-inclusive, Prometheus `le` semantics) plus an implicit
// +Inf bucket. Fixed bounds are what make snapshots deterministic: the
// shape of the histogram never depends on the data that arrived first.
// Nil-receiver safe like Counter.
type Histogram struct {
	bounds []float64 // sorted ascending, fixed at creation
	counts []atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations; 0 on a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the bucket holding the target rank — the
// standard Prometheus histogram_quantile estimate. It returns 0 when
// the histogram is empty; samples in the +Inf bucket clamp to the
// highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencyBuckets are the default request-latency bounds in seconds:
// 100µs to 10s, roughly ×2.5 per step — wide enough for an in-process
// TCP round trip and a retry-after-timeout tail in the same histogram.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are generic magnitude bounds (1 to 1M, decades with a
// half step) for counts like region edges or frame sizes.
var SizeBuckets = []float64{
	1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1e6,
}

// IsTiming reports whether a metric name denotes a WALL-CLOCK
// measurement by convention: a suffix of "_seconds", "_seconds_total",
// or "_wall". Deterministic snapshots (Snapshot.NonTiming) exclude
// such metrics, because wall time is the one quantity instrumentation
// cannot make reproducible.
func IsTiming(name string) bool {
	return strings.HasSuffix(name, "_seconds") ||
		strings.HasSuffix(name, "_seconds_total") ||
		strings.HasSuffix(name, "_wall")
}

// entry is one registered series.
type entry struct {
	name   string
	labels []Label
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// sortKey orders snapshots: by name first, then by rendered labels, so
// series of the same metric are adjacent regardless of label bytes.
func (e *entry) sortKey() string { return e.name + "\x00" + renderLabels(e.labels) }

// Registry maps metric identities to live instruments. Registration
// (Counter/Gauge/Histogram) takes a mutex and may allocate — call it at
// setup time and cache the returned instrument; the instrument methods
// themselves are the lock-free hot path. A nil *Registry hands out nil
// instruments, making "telemetry off" a nil check at the call site.
//
// The zero value is NOT ready; use NewRegistry.
type Registry struct {
	mu sync.Mutex
	by map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{by: map[string]*entry{}} }

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// get returns the entry for (name, labels), creating it with kind via
// make when absent. Re-registering with a different kind is a
// programmer error and panics, mirroring MustRegister elsewhere.
func (r *Registry) get(name string, kind Kind, labels []Label, make func() *entry) *entry {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.by[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", key, kind, e.kind))
		}
		return e
	}
	e := make()
	r.by[key] = e
	return e
}

// Counter returns (creating if needed) the counter for name+labels.
// Nil registry → a fresh standalone counter, readable but never listed.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	e := r.get(name, KindCounter, labels, func() *entry {
		return &entry{name: name, labels: labels, kind: KindCounter, c: &Counter{}}
	})
	return e.c
}

// Gauge returns (creating if needed) the gauge for name+labels.
// Nil registry → a fresh standalone gauge, as for Counter.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	e := r.get(name, KindGauge, labels, func() *entry {
		return &entry{name: name, labels: labels, kind: KindGauge, g: &Gauge{}}
	})
	return e.g
}

// Histogram returns (creating if needed) the histogram for name+labels
// with the given fixed bucket bounds. The bounds of an existing series
// win; passing different bounds for the same identity panics.
// Nil registry → nil histogram, whose methods no-op: a caller can gate
// work (a clock read per observation) on it.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	e := r.get(name, KindHistogram, labels, func() *entry {
		return &entry{name: name, labels: labels, kind: KindHistogram, h: newHistogram(bounds)}
	})
	if len(e.h.bounds) != len(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %s re-registered with %d bounds (was %d)",
			name, len(bounds), len(e.h.bounds)))
	}
	return e.h
}

// Bucket is one cumulative histogram bucket in a snapshot: the count of
// observations ≤ Le.
type Bucket struct {
	Le    float64
	Count uint64
}

// Metric is one series frozen at snapshot time.
type Metric struct {
	Name   string
	Labels []Label
	Kind   Kind
	// Timing reports the IsTiming naming convention — true means the
	// values measure wall clock and are excluded from deterministic
	// comparisons.
	Timing bool
	// Value is the counter (as float) or gauge value.
	Value float64
	// Count / Sum / Buckets carry histogram state; Buckets are
	// cumulative and end with the +Inf bucket (Le = +Inf).
	Count   uint64
	Sum     float64
	Buckets []Bucket
}

// Snapshot is a stable-sorted copy of every registered series.
type Snapshot struct{ Metrics []Metric }

// Snapshot freezes the registry: every series copied out, sorted by
// (name, labels) so two snapshots of identical state render
// byte-identically. Nil registry → empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.by))
	for _, e := range r.by {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].sortKey() < entries[j].sortKey() })

	out := Snapshot{Metrics: make([]Metric, 0, len(entries))}
	for _, e := range entries {
		m := Metric{Name: e.name, Labels: e.labels, Kind: e.kind, Timing: IsTiming(e.name)}
		switch e.kind {
		case KindCounter:
			m.Value = float64(e.c.Value())
		case KindGauge:
			m.Value = e.g.Value()
		case KindHistogram:
			m.Count = e.h.Count()
			m.Sum = e.h.Sum()
			cum := uint64(0)
			for i := range e.h.counts {
				cum += e.h.counts[i].Load()
				le := math.Inf(1)
				if i < len(e.h.bounds) {
					le = e.h.bounds[i]
				}
				m.Buckets = append(m.Buckets, Bucket{Le: le, Count: cum})
			}
		}
		out.Metrics = append(out.Metrics, m)
	}
	return out
}

// NonTiming returns the snapshot without wall-clock series (IsTiming) —
// what the determinism tests compare byte for byte.
func (s Snapshot) NonTiming() Snapshot {
	out := Snapshot{Metrics: make([]Metric, 0, len(s.Metrics))}
	for _, m := range s.Metrics {
		if !m.Timing {
			out.Metrics = append(out.Metrics, m)
		}
	}
	return out
}

// Get returns the first series with the given name (any labels), for
// tests and CLI summaries.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// PromText renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one # TYPE header per metric name, histogram
// series expanded into _bucket/_sum/_count.
func (s Snapshot) PromText() string {
	var b strings.Builder
	lastName := ""
	for _, m := range s.Metrics {
		if m.Name != lastName {
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.Name, m.Kind)
			lastName = m.Name
		}
		switch m.Kind {
		case KindHistogram:
			for _, bk := range m.Buckets {
				le := "+Inf"
				if !math.IsInf(bk.Le, 1) {
					le = formatFloat(bk.Le)
				}
				labels := append(append([]Label(nil), m.Labels...), Label{"le", le})
				fmt.Fprintf(&b, "%s_bucket%s %d\n", m.Name, renderLabels(labels), bk.Count)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", m.Name, renderLabels(m.Labels), formatFloat(m.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", m.Name, renderLabels(m.Labels), m.Count)
		default:
			fmt.Fprintf(&b, "%s%s %s\n", m.Name, renderLabels(m.Labels), formatFloat(m.Value))
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

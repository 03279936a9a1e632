package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same identity returns the same instrument.
	if r.Counter("ops_total") != c {
		t.Fatalf("re-registration returned a different counter")
	}
	// Different labels are a different series.
	c2 := r.Counter("ops_total", Label{"kind", "add"})
	if c2 == c {
		t.Fatalf("labeled series aliased the unlabeled one")
	}
	c2.Inc()

	g := r.Gauge("drift")
	g.Set(0.5)
	g.Add(0.25)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %g, want 0.75", got)
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("y")
	h := r.Histogram("z", SizeBuckets)
	if c == nil || g == nil || h != nil {
		t.Fatalf("nil registry handed out counter %p, gauge %p, histogram %p; want standalone, standalone, nil", c, g, h)
	}
	if c2 := r.Counter("x_total"); c2 == c {
		t.Fatalf("nil registry handed out one counter twice")
	}
	// The standalone instruments count; the nil histogram no-ops.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 4 || g.Value() != 2 {
		t.Fatalf("standalone counter = %d, gauge = %g; want 4, 2", c.Value(), g.Value())
	}
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram reported non-zero values")
	}
	snap := r.Snapshot()
	if len(snap.Metrics) != 0 || snap.PromText() != "" {
		t.Fatalf("nil registry snapshot not empty")
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %g, want 106", h.Sum())
	}
	m, ok := r.Snapshot().Get("lat_seconds")
	if !ok {
		t.Fatalf("histogram missing from snapshot")
	}
	want := []Bucket{{1, 2}, {2, 3}, {4, 4}, {math.Inf(1), 5}}
	if len(m.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", m.Buckets, want)
	}
	for i := range want {
		if m.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, m.Buckets[i], want[i])
		}
	}
	if !m.Timing {
		t.Fatalf("_seconds histogram not flagged as timing")
	}
	// +Inf samples clamp the quantile at the top finite bound.
	if q := h.Quantile(1); q != 4 {
		t.Fatalf("q1 = %g, want 4", q)
	}
	// Median falls in the (1,2] bucket and interpolates.
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("q0.5 = %g, want within (1,2]", q)
	}
	if e := (&Histogram{}); e.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile != 0")
	}
}

func TestSnapshotDeterministicOrderAndRender(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b_total").Add(2)
		r.Gauge("a").Set(1.5)
		r.Counter("b_total", Label{"k", "v"}).Add(1)
		r.Histogram("c", []float64{1, 10}).Observe(3)
		return r
	}
	s1, s2 := build().Snapshot().PromText(), build().Snapshot().PromText()
	if s1 != s2 {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", s1, s2)
	}
	wantOrder := []string{"a ", "b_total ", `b_total{k="v"} `, `c_bucket{le="1"} `, `c_bucket{le="10"} `, `c_bucket{le="+Inf"} `, "c_sum ", "c_count "}
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(s1), "\n") {
		if !strings.HasPrefix(l, "# ") {
			lines = append(lines, l)
		}
	}
	if len(lines) != len(wantOrder) {
		t.Fatalf("got %d lines: %q", len(lines), lines)
	}
	for i, p := range wantOrder {
		if !strings.HasPrefix(lines[i], p) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], p)
		}
	}
}

func TestPromText(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", Label{"kind", "add"}).Add(3)
	r.Histogram("lat", []float64{0.5, 1}).Observe(0.7)
	txt := r.Snapshot().PromText()
	for _, want := range []string{
		"# TYPE lat histogram",
		`lat_bucket{le="0.5"} 0`,
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="+Inf"} 1`,
		"lat_sum 0.7",
		"lat_count 1",
		"# TYPE ops_total counter",
		`ops_total{kind="add"} 3`,
	} {
		if !strings.Contains(txt, want) {
			t.Fatalf("PromText missing %q:\n%s", want, txt)
		}
	}
}

func TestNonTimingExcludesWallClock(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total").Inc()
	r.Gauge("solve_wall").Set(1.23)
	r.Gauge("sleep_seconds_total").Set(0.5)
	r.Histogram("lat_seconds", LatencyBuckets).Observe(0.01)
	nt := r.Snapshot().NonTiming()
	if len(nt.Metrics) != 1 || nt.Metrics[0].Name != "ops_total" {
		t.Fatalf("NonTiming kept timing series: %s", nt.PromText())
	}
}

func TestIsTiming(t *testing.T) {
	for name, want := range map[string]bool{
		"solver_wall":                   true,
		"lat_seconds":                   true,
		"sleep_seconds_total":           true,
		"ops_total":                     false,
		"seconds_in_name_bytes":         false,
		"netstore_bytes_total":          false,
		"online_resolves_total":         false,
		"loadgen_query_latency_seconds": true,
	} {
		if IsTiming(name) != want {
			t.Fatalf("IsTiming(%q) = %v, want %v", name, !want, want)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatalf("kind mismatch did not panic")
		}
	}()
	r.Gauge("x")
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total")
	g := r.Gauge("sum")
	h := r.Histogram("v", SizeBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 7))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %g, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

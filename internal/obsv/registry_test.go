package obsv

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryIdempotentHandles(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("foo_total", "help")
	c2 := r.Counter("foo_total", "other help ignored")
	if c1 != c2 {
		t.Fatal("same name should return the same counter cell")
	}
	g1 := r.GaugeVec("bar", "h", []string{"worker"}, []string{"0"})
	g2 := r.GaugeVec("bar", "h", []string{"worker"}, []string{"1"})
	g3 := r.GaugeVec("bar", "h", []string{"worker"}, []string{"0"})
	if g1 == g2 {
		t.Fatal("distinct label values must get distinct cells")
	}
	if g1 != g3 {
		t.Fatal("same label values must share the cell")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("x", "h")
}

func TestNilRegistryHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "h")
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil-registry counter must stay 0")
	}
	r.Gauge("g", "h").Set(5)
	r.FloatGauge("f", "h").Set(1.5)
	r.Histogram("h", "h", []int64{1}).Observe(3)
	r.Summary("s", "h", 8, []float64{0.5}).Observe(time.Second)
	if err := r.WritePromTo(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Max(10)
	g.Max(5)
	if g.Value() != 10 {
		t.Fatalf("Max should keep the high-water: got %d", g.Value())
	}
	g.Max(12)
	if g.Value() != 12 {
		t.Fatalf("Max should raise: got %d", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]int64{1, 4, 16})
	for _, v := range []int64{1, 1, 3, 9, 100} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 {
		t.Fatalf("bounds: %v", bounds)
	}
	// le=1 → 2, le=4 → 3, le=16 → 4, +Inf → 5
	if cum[0] != 2 || cum[1] != 3 || cum[2] != 4 {
		t.Fatalf("cumulative counts: %v", cum)
	}
	if h.Count() != 5 || h.Sum() != 114 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestQuantilesSummary(t *testing.T) {
	q := NewQuantiles(128, []float64{0.5, 0.99})
	for i := 1; i <= 100; i++ {
		q.Observe(time.Duration(i) * time.Millisecond)
	}
	qs, vals := q.Query()
	if len(qs) != 2 {
		t.Fatalf("quantiles: %v", qs)
	}
	if vals[0] != 50*time.Millisecond {
		t.Fatalf("p50: %v", vals[0])
	}
	if vals[1] != 99*time.Millisecond {
		t.Fatalf("p99: %v", vals[1])
	}
	if q.Count() != 100 {
		t.Fatalf("count: %d", q.Count())
	}
	if q.Sum() != 5050*time.Millisecond {
		t.Fatalf("sum: %v", q.Sum())
	}
}

// TestLabelValueEscapedOnce pins the text format's label-value escaping:
// backslash, double quote and newline are escaped once each, and every
// other byte is written as it is (the format has no \x escape).
func TestLabelValueEscapedOnce(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "h", []string{"v"}, []string{"a\"b\\c\n\x01"}).Inc()
	var b strings.Builder
	if err := r.WritePromTo(&b); err != nil {
		t.Fatal(err)
	}
	want := "esc_total{v=\"a\\\"b\\\\c\\n\x01\"} 1\n"
	if !strings.HasSuffix(b.String(), want) {
		t.Fatalf("exposition:\n%q\nwant it to end in %q", b.String(), want)
	}
}

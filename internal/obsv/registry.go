package obsv

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A metric family's exposition type.
type familyKind uint8

const (
	kindCounter familyKind = iota
	// kindSecondsCounter is a Counter cell holding nanoseconds, exposed in
	// seconds (the Prometheus base unit) so the hot path adds an integer.
	kindSecondsCounter
	kindGauge
	kindFloatGauge
	kindHistogram
	kindSummary
)

func (k familyKind) promType() string {
	switch k {
	case kindCounter, kindSecondsCounter:
		return "counter"
	case kindGauge, kindFloatGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "summary"
}

// series is one labelled instance of a family: a (labelNames, labelValues)
// pair plus the value cell. Exactly one of the value fields is non-nil,
// matching the family kind.
type series struct {
	labels []string // label values, parallel to family.labelNames
	c      *Counter
	g      *Gauge
	fg     *FloatGauge
	h      *Histogram
	q      *Quantiles
}

// family is one metric name with its help text, type, and labelled series.
type family struct {
	name       string
	help       string
	kind       familyKind
	labelNames []string
	series     []*series
}

// Counter is a monotonically increasing atomic counter. All methods are safe
// on a nil receiver (no-ops / zero), so call sites don't need to guard on
// whether observability is enabled.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d (d must be non-negative).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous int64 value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Max raises the gauge to v if v is larger (monotonic high-water update).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic instantaneous float64 value (stored as bits).
type FloatGauge struct{ v atomic.Uint64 }

// Set stores the gauge value.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.v.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Histogram is a fixed-bucket histogram of int64 observations with atomic
// per-bucket counts. Bounds are inclusive upper edges; observations above
// the last bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	n      atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. Allocation-free; bucket search is a linear scan
// (bucket counts are small — e.g. 9 occupancy buckets).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns (upper bounds, cumulative counts) — the Prometheus bucket
// view, excluding the +Inf bucket (whose cumulative count equals Count()).
func (h *Histogram) Buckets() ([]int64, []int64) {
	if h == nil {
		return nil, nil
	}
	cum := make([]int64, len(h.bounds))
	var run int64
	for i := range h.bounds {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return h.bounds, cum
}

// Quantiles is a bounded ring of duration observations: it never grows past
// its window, so a long-running server can feed it on every dispatch without
// leaking. Quantiles are answered over the retained window (the most recent
// observations), Count and Sum over everything ever observed — exposition-
// ready as a Prometheus summary. It carries its own lock: Observe and the
// query methods are safe to call concurrently (scrape handlers read while the
// pipeline keeps observing). All methods are no-ops on a nil receiver.
type Quantiles struct {
	qs []float64

	mu    sync.Mutex
	buf   []time.Duration
	next  int
	n     int           // retained observations, <= len(buf)
	count int64         // observations ever made
	sum   time.Duration // sum of observations ever made
}

// NewQuantiles returns a ring retaining the most recent window observations;
// Query answers the quantiles qs (fractions in (0,1]).
func NewQuantiles(window int, qs []float64) *Quantiles {
	if window <= 0 {
		panic(fmt.Sprintf("obsv: NewQuantiles window %d out of range", window))
	}
	return &Quantiles{qs: qs, buf: make([]time.Duration, window)}
}

// Observe records one duration, evicting the oldest when the window is full.
func (q *Quantiles) Observe(d time.Duration) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.buf[q.next] = d
	q.next = (q.next + 1) % len(q.buf)
	if q.n < len(q.buf) {
		q.n++
	}
	q.count++
	q.sum += d
	q.mu.Unlock()
}

// Count returns the all-time observation count.
func (q *Quantiles) Count() int64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Sum returns the all-time observation sum.
func (q *Quantiles) Sum() time.Duration {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sum
}

// sorted returns a sorted copy of the retained window.
func (q *Quantiles) sorted() []time.Duration {
	q.mu.Lock()
	s := append([]time.Duration(nil), q.buf[:q.n]...)
	q.mu.Unlock()
	slices.Sort(s)
	return s
}

// NearestRank returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule, or 0 when it is empty. It is the one percentile rule:
// Quantiles answers with it, and so does the simulator's offline recorder.
func NearestRank(sorted []time.Duration, p float64) time.Duration {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("obsv: percentile %v out of (0,100]", p))
	}
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(p/100*float64(n))), 1), n)
	return sorted[rank-1]
}

// Percentile returns the p-th percentile (0 < p <= 100, nearest-rank) over
// the retained window, or 0 with no observations.
func (q *Quantiles) Percentile(p float64) time.Duration {
	if q == nil {
		return 0
	}
	return NearestRank(q.sorted(), p)
}

// Query returns the configured quantiles over the retained window (one sort
// for all of them).
func (q *Quantiles) Query() (qs []float64, vals []time.Duration) {
	if q == nil {
		return nil, nil
	}
	sorted := q.sorted()
	vals = make([]time.Duration, len(q.qs))
	for i, p := range q.qs {
		vals[i] = NearestRank(sorted, p*100)
	}
	return q.qs, vals
}

// Registry holds named metric families and renders them in Prometheus text
// format. Getters are idempotent: the same (name, label values) returns the
// same cell, so hot paths can cache handles while exposition walks the
// registry. Collectors registered via AddCollector run just before each
// exposition to refresh derived gauges.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// AddCollector registers fn to run before each exposition/snapshot (used to
// refresh derived values such as the padding-waste ratio). Collectors run
// without the registry lock held, so they may call registry getters.
func (r *Registry) AddCollector(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

func (r *Registry) collect() {
	if r == nil {
		return
	}
	r.mu.Lock()
	fns := make([]func(), len(r.collectors))
	copy(fns, r.collectors)
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// getSeries finds or creates the series for (name, labelValues), creating
// the family on first use. It panics if the same name is re-registered with
// a different kind or label schema — that is a programming error that would
// corrupt the exposition.
func (r *Registry) getSeries(name, help string, kind familyKind, labelNames, labelValues []string, mk func(*series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, labelNames: labelNames}
		r.families[name] = f
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("obsv: metric %q re-registered as %s (was %s)", name, kind.promType(), f.kind.promType()))
		}
		if len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obsv: metric %q re-registered with %d labels (was %d)", name, len(labelNames), len(f.labelNames)))
		}
		for i := range labelNames {
			if f.labelNames[i] != labelNames[i] {
				panic(fmt.Sprintf("obsv: metric %q re-registered with label %q (was %q)", name, labelNames[i], f.labelNames[i]))
			}
		}
	}
outer:
	for _, s := range f.series {
		for i := range labelValues {
			if s.labels[i] != labelValues[i] {
				continue outer
			}
		}
		return s
	}
	vals := make([]string, len(labelValues))
	copy(vals, labelValues)
	s := &series{labels: vals}
	mk(s)
	f.series = append(f.series, s)
	return s
}

// CounterVec returns the counter for (name, labels). nil-registry safe.
func (r *Registry) CounterVec(name, help string, labelNames, labelValues []string) *Counter {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindCounter, labelNames, labelValues, func(s *series) { s.c = &Counter{} }).c
}

// Counter returns the unlabelled counter for name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help, nil, nil)
}

// SecondsCounterVec returns the counter for (name, labels) of a family whose
// cells accumulate nanoseconds and are exposed as seconds.
func (r *Registry) SecondsCounterVec(name, help string, labelNames, labelValues []string) *Counter {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindSecondsCounter, labelNames, labelValues, func(s *series) { s.c = &Counter{} }).c
}

// GaugeVec returns the gauge for (name, labels).
func (r *Registry) GaugeVec(name, help string, labelNames, labelValues []string) *Gauge {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindGauge, labelNames, labelValues, func(s *series) { s.g = &Gauge{} }).g
}

// Gauge returns the unlabelled gauge for name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help, nil, nil)
}

// FloatGauge returns the unlabelled float gauge for name.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindFloatGauge, nil, nil, func(s *series) { s.fg = &FloatGauge{} }).fg
}

// Histogram returns the unlabelled histogram for name with the given
// inclusive upper bounds (first call wins; later calls reuse it).
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindHistogram, nil, nil, func(s *series) { s.h = newHistogram(bounds) }).h
}

// Summary returns the unlabelled windowed-quantile summary for name.
func (r *Registry) Summary(name, help string, window int, qs []float64) *Quantiles {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindSummary, nil, nil, func(s *series) { s.q = NewQuantiles(window, qs) }).q
}

// FamilyNames returns the sorted names of all registered families.
func (r *Registry) FamilyNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Package obsv is the serving stack's observability layer: allocation-free
// span/event rings written from the hot path, a registry of counters /
// gauges / histograms / windowed quantiles rendered in Prometheus text
// format, and request-timeline reconstruction for the /debug/requests
// introspection endpoint.
//
// Design constraints, in order:
//
//  1. The hot path (worker exec loop, manager loop) must not allocate and
//     must not take locks to record events. Rings are single-writer with
//     per-slot atomic sequence counters; metric cells are plain atomics.
//  2. Everything is nil-safe: a server built with observability disabled
//     passes nil handles around and every method degrades to a no-op, so
//     instrumented code has no "is tracing on" branches.
//  3. The same metric families are produced by the live server and the
//     virtual-time sim/conformance runners, so the paper's evaluation
//     signals (queuing vs computation latency, batch occupancy, padding
//     waste) are comparable across both.
package obsv

import (
	"sort"
	"sync"
)

// Observer owns the span rings and maps cell-type strings to the compact IDs
// stored in ring records. One Observer serves
// one engine instance (server or sim run).
type Observer struct {
	// Metrics is the engine's serving-metric handles (may be an inert
	// instance; never nil on a non-nil Observer built by NewObserver).
	Metrics *ServingMetrics

	ringCap int

	mu      sync.Mutex
	rings   []*Ring
	types   map[string]uint16
	names   []string // index = type ID
	details map[uint16]TypeDetail
}

// TypeDetail carries per-cell-type annotations resolved at trace-assembly
// time: the configured batch bound (for occupancy/padding).
type TypeDetail struct {
	MaxBatch int
}

// NewObserver builds an Observer over reg (nil reg yields inert metrics —
// still usable, nothing retained). ringCap sizes each per-writer ring
// (<=0 means DefaultRingCapacity).
func NewObserver(reg *Registry, ringCap int) *Observer {
	o := &Observer{
		Metrics: NewServingMetrics(reg),
		ringCap: ringCap,
		types:   make(map[string]uint16),
		names:   []string{"?"}, // ID 0 = unknown
		details: make(map[uint16]TypeDetail),
	}
	reg.AddCollector(o.refreshRingGauges)
	return o
}

// refreshRingGauges mirrors each ring's written/dropped counters into the
// registry at exposition time.
func (o *Observer) refreshRingGauges() {
	reg := o.Metrics.Registry()
	for _, r := range o.Rings() {
		label := []string{r.Name()}
		reg.GaugeVec(MetricSpanWritten, "Span records written to the ring.",
			[]string{"ring"}, label).Set(int64(r.Total()))
		reg.GaugeVec(MetricSpanDropped, "Span records overwritten before retention.",
			[]string{"ring"}, label).Set(int64(r.Dropped()))
	}
}

// NewRing creates, registers, and returns a span ring for one writer
// goroutine (e.g. "worker-3"). Returns nil (a valid no-op ring) on a nil
// Observer.
func (o *Observer) NewRing(name string) *Ring {
	if o == nil {
		return nil
	}
	r := NewRing(name, o.ringCap)
	o.mu.Lock()
	o.rings = append(o.rings, r)
	o.mu.Unlock()
	return r
}

// AdoptRing registers an externally created ring (obsv.NewRing) with this
// observer so snapshots, gauges, and trace assembly include it. Used when a
// ring's writer starts before the observer exists — e.g. the journal's
// flush/sync loops, which open before the server builds its observer. A nil
// ring is ignored.
func (o *Observer) AdoptRing(r *Ring) {
	if o == nil || r == nil {
		return
	}
	o.mu.Lock()
	o.rings = append(o.rings, r)
	o.mu.Unlock()
}

// InternType maps a cell-type key to the compact ID stored in ring
// records, registering it on first use. Call at setup, not per event.
func (o *Observer) InternType(key string) uint16 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if id, ok := o.types[key]; ok {
		return id
	}
	id := uint16(len(o.names))
	o.types[key] = id
	o.names = append(o.names, key)
	return id
}

// SetTypeDetail attaches trace annotations (batch bound) to a cell
// type, interning it if needed. Call at setup, not per event.
func (o *Observer) SetTypeDetail(key string, d TypeDetail) {
	if o == nil {
		return
	}
	id := o.InternType(key)
	o.mu.Lock()
	o.details[id] = d
	o.mu.Unlock()
}

// TypeDetailFor resolves a type ID's trace annotations (zero value if none
// were registered).
func (o *Observer) TypeDetailFor(id uint16) TypeDetail {
	if o == nil {
		return TypeDetail{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.details[id]
}

// TypeName resolves an interned type ID back to its key ("?" if unknown).
func (o *Observer) TypeName(id uint16) string {
	if o == nil {
		return "?"
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if int(id) < len(o.names) {
		return o.names[id]
	}
	return "?"
}

// Rings returns the registered rings (snapshot of the list).
func (o *Observer) Rings() []*Ring {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	rs := make([]*Ring, len(o.rings))
	copy(rs, o.rings)
	return rs
}

// Snapshot drains every ring into one slice ordered by primary timestamp
// (stable across rings), for timeline reconstruction.
func (o *Observer) Snapshot() []Record {
	var recs []Record
	for _, r := range o.Rings() {
		recs = r.Snapshot(recs)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].T0 < recs[j].T0 })
	return recs
}

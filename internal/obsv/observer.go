// Package obsv is the serving stack's observability layer: allocation-free
// span/event rings written from the hot path, a registry of counters /
// gauges / histograms / windowed quantiles rendered in Prometheus text
// format, and request-timeline reconstruction for the /debug/requests
// introspection endpoint.
//
// Design constraints, in order:
//
//  1. The hot path (worker exec loop, manager) must not allocate and
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

// Observer owns the span rings and the engine's cell-type table, which
// names the type a ring record carries. One Observer serves one engine
// instance (server or sim run).
type Observer struct {
	// Metrics is the engine's serving-metric handles (may be an inert
	// instance; never nil on a non-nil Observer built by NewObserver).
	Metrics *ServingMetrics

	ringCap int

	mu    sync.Mutex
	rings []*Ring
	// names and maxBatch are the engine's cell-type table, indexed by the
	// engine's type id; a record's Type is that id + 1, and 0 is unknown.
	names    []string
	maxBatch []int
}

// NewObserver builds an Observer over reg (nil reg yields inert metrics —
// still usable, nothing retained). ringCap sizes each per-writer ring
// (<=0 means DefaultRingCapacity).
func NewObserver(reg *Registry, ringCap int) *Observer {
	o := &Observer{
		Metrics: NewServingMetrics(reg),
		ringCap: ringCap,
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
// flush loop, which opens before the server builds its observer. A nil
// ring is ignored.
func (o *Observer) AdoptRing(r *Ring) {
	if o == nil || r == nil {
		return
	}
	o.mu.Lock()
	o.rings = append(o.rings, r)
	o.mu.Unlock()
}

// SetTypes installs the engine's cell-type table: names[i] and maxBatch[i]
// (the batch bound trace slices report occupancy against) describe type id
// i, which records carry as Type i+1. Call at setup, not per event.
func (o *Observer) SetTypes(names []string, maxBatch []int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.names = append([]string(nil), names...)
	o.maxBatch = append([]int(nil), maxBatch...)
	o.mu.Unlock()
}

// TypeName resolves a record's Type to its cell type's name ("?" if
// unknown).
func (o *Observer) TypeName(typ uint16) string {
	if o == nil {
		return "?"
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if typ == 0 || int(typ) > len(o.names) {
		return "?"
	}
	return o.names[typ-1]
}

// maxBatchOf resolves a record's Type to its cell type's batch bound (0 if
// unknown).
func (o *Observer) maxBatchOf(typ uint16) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if typ == 0 || int(typ) > len(o.maxBatch) {
		return 0
	}
	return o.maxBatch[typ-1]
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

package obsv

import (
	"sync/atomic"
	"time"
)

// SLO metric family names. Like the policy families, they only appear in
// the exposition when an SLO engine is actually wired, so deployments
// without an SLO target keep the golden exposition unchanged.
const (
	MetricSLOObjective       = "batchmaker_slo_objective"
	MetricSLOGood            = "batchmaker_slo_good_total"
	MetricSLOBad             = "batchmaker_slo_bad_total"
	MetricSLOBurnRate        = "batchmaker_slo_burn_rate"
	MetricSLOBudgetRemaining = "batchmaker_slo_budget_remaining"
)

// SLO burn-rate windows (the classic multi-window pair: the short window
// catches fast burns, the long window keeps the alert from flapping once
// the incident ends).
const (
	SLOShortWindow = 5 * time.Minute
	SLOLongWindow  = time.Hour
)

// sloBucket is one second of good/bad counts. sec tags which absolute
// second the bucket currently holds so stale buckets are skipped by
// readers and lazily reset by the writer.
type sloBucket struct {
	sec  atomic.Int64
	good atomic.Int64
	bad  atomic.Int64
}

// SLOEngine tracks multi-window error-budget burn over request outcomes.
// An event is "bad" when the request failed/expired or completed over the
// latency target. Observe is single-writer (the live server's manager);
// BurnRate/Totals may be called concurrently from the detector and the
// metrics collector.
//
// Burn rate is (bad/total)/(1-objective) over a trailing window: 1.0 means
// the error budget is being consumed exactly at the sustainable rate,
// above 1.0 the budget runs out before the period does.
type SLOEngine struct {
	objective float64
	targetNs  int64
	buckets   []sloBucket // one per second, covering SLOLongWindow
}

// NewSLOEngine builds an engine with the given availability objective
// (e.g. 0.999) and latency target. objective is clamped to [0.5, 0.99999];
// a zero latency target means only terminal outcomes count against the
// budget. Registers the batchmaker_slo_* families in reg (nil reg keeps
// the engine usable without exposition).
func NewSLOEngine(reg *Registry, objective float64, target time.Duration) *SLOEngine {
	if objective < 0.5 {
		objective = 0.5
	}
	if objective > 0.99999 {
		objective = 0.99999
	}
	e := &SLOEngine{
		objective: objective,
		targetNs:  int64(target),
		buckets:   make([]sloBucket, int(SLOLongWindow/time.Second)),
	}
	if reg != nil {
		obj := reg.FloatGauge(MetricSLOObjective,
			"Configured SLO availability objective.")
		obj.Set(objective)
		good := reg.GaugeVec(MetricSLOGood,
			"Requests inside the SLO over the trailing window.",
			[]string{"window"}, []string{"1h"})
		bad := reg.GaugeVec(MetricSLOBad,
			"Requests outside the SLO over the trailing window.",
			[]string{"window"}, []string{"1h"})
		burn5 := reg.FloatGaugeVec(MetricSLOBurnRate,
			"Error-budget burn rate (1.0 = sustainable).",
			[]string{"window"}, []string{"5m"})
		burn1h := reg.FloatGaugeVec(MetricSLOBurnRate,
			"Error-budget burn rate (1.0 = sustainable).",
			[]string{"window"}, []string{"1h"})
		rem := reg.FloatGaugeVec(MetricSLOBudgetRemaining,
			"Fraction of the error budget left over the trailing window.",
			[]string{"window"}, []string{"1h"})
		reg.AddCollector(func() {
			now := time.Now().UnixNano()
			g, b := e.Totals(SLOLongWindow, now)
			good.Set(g)
			bad.Set(b)
			burn5.Set(e.BurnRate(SLOShortWindow, now))
			lb := e.BurnRate(SLOLongWindow, now)
			burn1h.Set(lb)
			rem.Set(1 - lb)
		})
	}
	return e
}

// Objective returns the configured availability objective.
func (e *SLOEngine) Objective() float64 {
	if e == nil {
		return 0
	}
	return e.objective
}

// TargetNs returns the latency target in nanoseconds (0 if unset).
func (e *SLOEngine) TargetNs() int64 {
	if e == nil {
		return 0
	}
	return e.targetNs
}

// Observe records one terminal request outcome. ok is the transport-level
// verdict (completed vs failed/expired); latency is checked against the
// target for completed requests. Allocation-free and lock-free — safe on
// the manager goroutine.
func (e *SLOEngine) Observe(latencyNs int64, ok bool, nowNs int64) {
	if e == nil {
		return
	}
	bad := !ok || (e.targetNs > 0 && latencyNs > e.targetNs)
	sec := nowNs / int64(time.Second)
	b := &e.buckets[int(sec)%len(e.buckets)]
	if b.sec.Load() != sec {
		// Single-writer: reset the recycled bucket for the new second.
		// Readers observing the intermediate state at worst misattribute
		// one event — acceptable for a trailing-window estimate.
		b.good.Store(0)
		b.bad.Store(0)
		b.sec.Store(sec)
	}
	if bad {
		b.bad.Add(1)
	} else {
		b.good.Add(1)
	}
}

// Totals returns the good/bad counts over the trailing window ending at
// nowNs.
func (e *SLOEngine) Totals(window time.Duration, nowNs int64) (good, bad int64) {
	if e == nil {
		return 0, 0
	}
	nowSec := nowNs / int64(time.Second)
	span := int64(window / time.Second)
	if span > int64(len(e.buckets)) {
		span = int64(len(e.buckets))
	}
	for i := int64(0); i < span; i++ {
		sec := nowSec - i
		b := &e.buckets[int(sec)%len(e.buckets)]
		if b.sec.Load() != sec {
			continue // stale or never-written bucket
		}
		good += b.good.Load()
		bad += b.bad.Load()
	}
	return good, bad
}

// BurnRate returns the error-budget burn rate over the trailing window
// (0 when the window saw no traffic).
func (e *SLOEngine) BurnRate(window time.Duration, nowNs int64) float64 {
	if e == nil {
		return 0
	}
	good, bad := e.Totals(window, nowNs)
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - e.objective
	return (float64(bad) / float64(total)) / budget
}

// Breached reports the multi-window burn alert: both the fast (5m) and
// slow (1h) windows must burn above 1.0, so a brief spike that the hour
// absorbs does not page, and a long slow burn does.
func (e *SLOEngine) Breached(nowNs int64) bool {
	if e == nil {
		return false
	}
	return e.BurnRate(SLOShortWindow, nowNs) > 1 &&
		e.BurnRate(SLOLongWindow, nowNs) > 1
}

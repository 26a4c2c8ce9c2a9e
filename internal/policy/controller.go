package policy

import (
	"fmt"
	"time"

	"batchmaker/internal/obsv"
)

// TypeBounds names one cell type and the MaxBatch range its AIMD controller
// may move within. Max is the statically configured ceiling.
type TypeBounds struct {
	Key      string
	Min, Max int
}

// TypeBatch is one MaxBatch actuation the engine should apply.
type TypeBatch struct {
	Key      string
	MaxBatch int
}

// minStepSamples is how many latency-split samples the windows must hold
// before an AIMD step is trusted.
const minStepSamples = 16

// Controller composes the admission gate, the throughput estimator, and the
// per-type AIMD MaxBatch controllers behind the two calls the engine makes
// anyway: Admit on arrival, Completed on request finish.
//
// Concurrency: the Controller is NOT synchronized. The live server calls it
// only from its manager goroutine; the simulator is
// single-threaded. All timestamps are caller-supplied nanoseconds, so
// decision sequences are a pure function of the call sequence — the
// determinism tests replay them byte-identically in virtual time.
type Controller struct {
	cfg     Config
	gate    *AdmissionGate
	rate    *RateEstimator
	queuing *obsv.Quantiles
	comp    *obsv.Quantiles
	types   []typeState
	mts     *obsv.PolicyMetrics

	lastStepNs int64
	stepped    bool
	trace      []string
}

type typeState struct {
	key  string
	aimd *AIMD
}

// New builds a controller for cfg over the given cell types. mts may be nil.
// Returns nil when cfg does not enable any controller, so callers can gate
// on `if ctl != nil`.
func New(cfg Config, types []TypeBounds, mts *obsv.PolicyMetrics) *Controller {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.withDefaults()
	if mts == nil {
		mts = obsv.NewPolicyMetrics(nil) // inert: every handle a no-op
	}
	c := &Controller{
		cfg:     cfg,
		gate:    NewAdmissionGate(cfg),
		rate:    NewRateEstimator(cfg.RateHalfLife),
		queuing: obsv.NewQuantiles(cfg.WindowSize, nil),
		comp:    obsv.NewQuantiles(cfg.WindowSize, nil),
		mts:     mts,
	}
	for _, tb := range types {
		a := NewAIMD(cfg, tb.Min, tb.Max)
		c.types = append(c.types, typeState{key: tb.Key, aimd: a})
		mts.MaxBatch(tb.Key).Set(int64(a.Current()))
	}
	return c
}

// Mode returns the active mode.
func (c *Controller) Mode() Mode { return c.cfg.Mode }

// SLA returns the configured latency target.
func (c *Controller) SLA() time.Duration { return c.cfg.SLA }

// Admit decides one admission. queuedCells is the cell backlog ahead of the
// request (ready + inflight). In modes without the admission gate it always
// admits but still reports the wait estimate.
func (c *Controller) Admit(nowNs int64, queuedCells int) Decision {
	rate := c.rate.Rate(nowNs)
	if !c.cfg.Mode.admission() {
		return Decision{Admit: true}
	}
	d, flipped := c.gate.Decide(queuedCells, rate)
	c.mts.EstWait.Set(d.EstWait.Seconds())
	if flipped {
		shedding := int64(0)
		if !d.Admit {
			shedding = 1
		}
		c.mts.GateFlips.Inc()
		c.mts.Shedding.Set(shedding)
		c.tracef("flip t=%d shedding=%d wait=%d", nowNs, shedding, d.EstWait.Nanoseconds())
	}
	if !d.Admit {
		c.mts.Sheds.Inc()
		c.tracef("shed t=%d queued=%d wait=%d retry=%d",
			nowNs, queuedCells, d.EstWait.Nanoseconds(), d.RetryAfter.Nanoseconds())
	}
	return d
}

// Completed feeds one finished request's cell count and latency split back
// into the controllers and returns any MaxBatch moves the engine should
// apply (empty in non-adaptive modes or between control intervals).
func (c *Controller) Completed(nowNs int64, cells int, queuing, computation time.Duration) []TypeBatch {
	c.rate.Observe(nowNs, cells)
	if !c.cfg.Mode.adaptive() {
		return nil
	}
	c.queuing.Observe(queuing)
	c.comp.Observe(computation)
	if c.queuing.Count() < minStepSamples {
		return nil
	}
	if c.stepped && nowNs-c.lastStepNs < c.cfg.Interval.Nanoseconds() {
		return nil
	}
	c.lastStepNs = nowNs
	c.stepped = true
	qP95, cP95 := c.queuing.Percentile(95), c.comp.Percentile(95)
	var moves []TypeBatch
	for i := range c.types {
		ts := &c.types[i]
		if cur, changed := ts.aimd.Update(qP95, cP95); changed {
			moves = append(moves, TypeBatch{Key: ts.key, MaxBatch: cur})
			c.mts.MaxBatch(ts.key).Set(int64(cur))
			c.tracef("batch t=%d type=%s max=%d", nowNs, ts.key, cur)
		}
	}
	return moves
}

// MaxBatch returns the current adaptive ceiling for a type (0 if unknown).
func (c *Controller) MaxBatch(typeKey string) int {
	for i := range c.types {
		if c.types[i].key == typeKey {
			return c.types[i].aimd.Current()
		}
	}
	return 0
}

// Sheds returns the number of requests the gate has rejected.
func (c *Controller) Sheds() int64 { return c.gate.Sheds() }

// Flips returns the number of gate state transitions.
func (c *Controller) Flips() int64 { return c.gate.Flips() }

// TraceLines returns the recorded decision trace (nil unless
// Config.RecordTrace was set).
func (c *Controller) TraceLines() []string { return c.trace }

func (c *Controller) tracef(format string, args ...any) {
	if c.cfg.RecordTrace {
		c.trace = append(c.trace, fmt.Sprintf(format, args...))
	}
}

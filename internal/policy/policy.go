// Package policy is the SLA feasibility rule: one admission decision priced
// on measured task time. Cellular batching (GaoYWL18) fixes MaxBatch and the
// admission limits statically; under bursty open-loop load a queue that has
// already outgrown the SLA only makes every later request late. The rule
// refuses a request when the work queued ahead of it cannot finish within the
// SLA at the price the engine has been paying per cell:
//
//	admit  iff  backlog per worker × (Σ execution time ÷ Σ rows) ≤ SLA
//
// The price comes from a constant-size window of recently retired tasks and
// is never decayed by time, so a herd after a quiet gap is priced like the
// traffic before it. Until the first task completes there is no price and the
// rule admits, so a warm-up never sheds. MaxBatch stays the static per-type
// bound; deadline-aware EDF ordering lives in core.Scheduler's ready queues.
//
// Every input is an explicit argument (no clock reads), so the same call
// sequence yields the same decisions in the virtual-time simulator.
package policy

import (
	"fmt"
	"time"

	"batchmaker/internal/obsv"
)

// Mode switches the rule on or off.
type Mode int

const (
	// ModeOff disables the policy layer.
	ModeOff Mode = iota
	// ModeFull arms the feasibility rule.
	ModeFull
)

// Config parameterizes the rule. The zero value is a valid disabled
// configuration.
type Config struct {
	Mode Mode
	// SLA is the latency target a request should meet. Required (> 0)
	// whenever Mode is not off.
	SLA time.Duration
}

// Enabled reports whether this configuration arms the rule.
func (c Config) Enabled() bool { return c.Mode != ModeOff && c.SLA > 0 }

// Validate rejects a configuration that arms the rule without an SLA.
func (c Config) Validate() error {
	if c.Mode != ModeOff && c.SLA <= 0 {
		return fmt.Errorf("policy: an armed policy requires a positive SLA")
	}
	return nil
}

// TypeBounds names one cell type and its static MaxBatch (Max), published
// once as the type's batchmaker_policy_max_batch gauge. Min is not read:
// nothing moves MaxBatch.
type TypeBounds struct {
	Key      string
	Min, Max int
}

// Decision is the rule's verdict for one request.
type Decision struct {
	// Admit is false when the request should be shed.
	Admit bool
	// EstWait is the priced wait of the backlog ahead of the request (0
	// before the first task completes).
	EstWait time.Duration
	// RetryAfter, set on shed decisions, is EstWait − SLA, at least 1 ms:
	// how long the backlog needs to fall back within the SLA.
	RetryAfter time.Duration
}

// window is how many recently retired tasks the price averages over.
const window = 256

// Controller holds the price and the last decision.
//
// Concurrency: not synchronized. The live server calls it under its
// manager's lock; the simulator is single-threaded.
type Controller struct {
	sla time.Duration
	mts *obsv.PolicyMetrics

	// rows and execNs are a ring of the last window tasks; next is the slot
	// the next task overwrites and sumRows/sumNs the ring's totals.
	rows     [window]int64
	execNs   [window]int64
	next     int
	sumRows  int64
	sumNs    int64
	shedding bool
}

// New builds a controller for cfg over the given cell types. mts may be nil.
// Returns nil when cfg does not arm the rule, so callers can gate on
// `if ctl != nil`.
func New(cfg Config, types []TypeBounds, mts *obsv.PolicyMetrics) *Controller {
	if !cfg.Enabled() {
		return nil
	}
	if mts == nil {
		mts = obsv.NewPolicyMetrics(nil) // inert: every handle a no-op
	}
	for _, tb := range types {
		mts.MaxBatch(tb.Key).Set(int64(tb.Max))
	}
	return &Controller{sla: cfg.SLA, mts: mts}
}

// Admit decides one admission. backlog is the caller's queued cell backlog
// per worker. nowNs is not read: the rule prices queued work, not time.
func (c *Controller) Admit(nowNs int64, backlog int) Decision {
	d := Decision{Admit: true}
	if c.sumRows > 0 {
		d.EstWait = time.Duration(float64(backlog) * float64(c.sumNs) / float64(c.sumRows))
		if d.EstWait > c.sla {
			d.Admit = false
			d.RetryAfter = max(d.EstWait-c.sla, time.Millisecond)
			c.mts.Sheds.Inc()
		}
	}
	c.mts.EstWait.Set(d.EstWait.Seconds())
	if shed := !d.Admit; shed != c.shedding {
		c.shedding = shed
		c.mts.GateFlips.Inc()
		if shed {
			c.mts.Shedding.Set(1)
		} else {
			c.mts.Shedding.Set(0)
		}
	}
	return d
}

// Completed prices one retired task: rows cells ran in computation. Callers
// pass 0 for queuing, which the rule does not read. A task with no rows or no
// measured time leaves the price unchanged.
func (c *Controller) Completed(nowNs int64, rows int, queuing, computation time.Duration) {
	if rows <= 0 || computation <= 0 {
		return
	}
	c.sumRows += int64(rows) - c.rows[c.next]
	c.sumNs += int64(computation) - c.execNs[c.next]
	c.rows[c.next], c.execNs[c.next] = int64(rows), int64(computation)
	c.next = (c.next + 1) % window
}

package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// GuardEngine is one engine's measurement inside a guard config. Extra keys
// in the file are ignored so the guard survives report-format growth.
type GuardEngine struct {
	ReqPerSec     float64 `json:"requests_per_sec"`
	AllocsPerCell float64 `json:"allocs_per_cell"`
}

// GuardConfig is one (GOMAXPROCS) configuration's recorded comparison.
type GuardConfig struct {
	Label            string      `json:"label"`
	GoMaxProcs       int         `json:"gomaxprocs"`
	GlobalLock       GuardEngine `json:"global_lock"`
	Pipelined        GuardEngine `json:"pipelined"`
	SpeedupReqPerSec float64     `json:"speedup_req_per_sec"`
}

// Speedup returns pipelined over global-lock request throughput.
func (c *GuardConfig) Speedup() float64 {
	return c.Pipelined.ReqPerSec / c.GlobalLock.ReqPerSec
}

// GuardObservability is the recorded tracing-on vs tracing-off comparison
// of the pipelined engine (same workload, observability as the only
// difference), in wall nanoseconds per executed cell. The detector fields
// are the second pairing, tracing-on both sides, with the diagnosis layer
// (SLO burn engine + live flight recorder) as the only difference; zero in
// reports recorded before the diagnosis layer existed.
type GuardObservability struct {
	TracingOnNsPerCell  float64 `json:"tracing_on_ns_per_cell"`
	TracingOffNsPerCell float64 `json:"tracing_off_ns_per_cell"`
	OverheadRatio       float64 `json:"overhead_ratio"`

	DetectorOnNsPerCell   float64 `json:"detector_on_ns_per_cell,omitempty"`
	DetectorOffNsPerCell  float64 `json:"detector_off_ns_per_cell,omitempty"`
	DetectorOverheadRatio float64 `json:"detector_overhead_ratio,omitempty"`
}

// Ratio returns tracing-on over tracing-off ns/cell.
func (o *GuardObservability) Ratio() float64 {
	return o.TracingOnNsPerCell / o.TracingOffNsPerCell
}

// EffectiveRatio returns the overhead ratio clamped to at least 1.0. A
// measured ratio below 1.0 does not mean tracing made the engine faster —
// it means the layer's true cost is below the run-to-run noise floor of
// the paired measurement (~±3% on this workload; see DESIGN.md §10), so
// the honest report is "no measurable overhead", i.e. 1.0.
func (o *GuardObservability) EffectiveRatio() float64 {
	if r := o.Ratio(); r > 1.0 {
		return r
	}
	return 1.0
}

// DetectorRatio returns detector-on over detector-off ns/cell.
func (o *GuardObservability) DetectorRatio() float64 {
	return o.DetectorOnNsPerCell / o.DetectorOffNsPerCell
}

// DetectorEffectiveRatio clamps the detector ratio to at least 1.0, with the
// same noise-floor reading as EffectiveRatio.
func (o *GuardObservability) DetectorEffectiveRatio() float64 {
	if r := o.DetectorRatio(); r > 1.0 {
		return r
	}
	return 1.0
}

// GuardDurability is the recorded journal-on vs journal-off comparison of
// the pipelined engine (same workload, the durable request journal at
// sync=batch as the only difference), in wall nanoseconds per executed cell.
type GuardDurability struct {
	JournalOnNsPerCell  float64 `json:"journal_on_ns_per_cell"`
	JournalOffNsPerCell float64 `json:"journal_off_ns_per_cell"`
	OverheadRatio       float64 `json:"overhead_ratio"`
}

// Ratio returns journal-on over journal-off ns/cell.
func (d *GuardDurability) Ratio() float64 {
	return d.JournalOnNsPerCell / d.JournalOffNsPerCell
}

// GuardScalingPoint is one pool count's recorded throughput on the live
// pool-scaling curve.
type GuardScalingPoint struct {
	Pools     int     `json:"pools"`
	ReqPerSec float64 `json:"requests_per_sec"`
}

// GuardScaling is the recorded multi-pool scaling record: the measured
// 1→N-pool curve plus the gated 2-pool-over-1-pool speedup.
type GuardScaling struct {
	Points     []GuardScalingPoint `json:"points"`
	Speedup2x1 float64             `json:"speedup_2_pools_over_1"`
}

// point returns the recorded entry for one pool count, or nil.
func (s *GuardScaling) point(pools int) *GuardScalingPoint {
	for i := range s.Points {
		if s.Points[i].Pools == pools {
			return &s.Points[i]
		}
	}
	return nil
}

// GuardPolicy is the recorded policy-on vs policy-off comparison of the
// bursty open-loop workload (same arrival schedule, the adaptive admission +
// batching control layer as the only difference).
type GuardPolicy struct {
	SLANs        float64 `json:"sla_ns"`
	StaticP99Ns  float64 `json:"static_p99_ns"`
	PolicyP99Ns  float64 `json:"policy_p99_ns"`
	StaticMisses int     `json:"static_deadline_misses"`
	PolicyMisses int     `json:"policy_deadline_misses"`
	PolicyShed   int     `json:"policy_shed"`
	TailRatio    float64 `json:"tail_ratio"`
}

// Ratio returns policy-on over policy-off P99 latency.
func (p *GuardPolicy) Ratio() float64 {
	return p.PolicyP99Ns / p.StaticP99Ns
}

// GuardQuantCell is one cell type's recorded f32-vs-int8 pairing in the
// quantization section: the paired StepInto timing plus the accuracy
// drift measured on the same weights.
type GuardQuantCell struct {
	Cell          string  `json:"cell"`
	Hidden        int     `json:"hidden"`
	Batch         int     `json:"batch"`
	F32NsPerStep  float64 `json:"f32_ns_per_step"`
	Int8NsPerStep float64 `json:"int8_ns_per_step"`
	Speedup       float64 `json:"speedup"`
	MaxAbsErr     float64 `json:"max_abs_err"`
	MinCosine     float64 `json:"min_cosine"`
}

// Ratio returns f32 over int8 ns/step: above 1 the quantized tier is the
// faster one.
func (c *GuardQuantCell) Ratio() float64 {
	return c.F32NsPerStep / c.Int8NsPerStep
}

// GuardQuant is the recorded quantization comparison: one entry per cell
// type (LSTM, GRU) at the acceptance shape.
type GuardQuant struct {
	Cells []GuardQuantCell `json:"cells"`
}

// GuardReport is the slice of BENCH_server.json the regression guard reads.
// Current reports carry one entry per GOMAXPROCS configuration under
// "configs"; reports from before the multi-config schema carried a single
// flat comparison, which ReadGuardReport lifts into a one-entry Configs
// list so both generations pass through the same checks.
type GuardReport struct {
	Benchmark string        `json:"benchmark"`
	Configs   []GuardConfig `json:"configs"`
	// Observability is the tracing-on/off overhead record; nil in reports
	// recorded before the observability layer existed.
	Observability *GuardObservability `json:"observability"`
	// Durability is the journal-on/off overhead record; nil in reports
	// recorded before the durable journal existed.
	Durability *GuardDurability `json:"durability"`
	// Scaling is the multi-pool scaling record; nil in reports recorded
	// before device pools existed.
	Scaling *GuardScaling `json:"scaling"`
	// Policy is the adaptive-policy burst record; nil in reports recorded
	// before the policy layer existed.
	Policy *GuardPolicy `json:"policy"`
	// Quantization is the int8-vs-f32 tier record; nil in reports recorded
	// before the quantized execution tier existed.
	Quantization *GuardQuant `json:"quantization"`

	// Legacy single-config fields.
	GlobalLock       GuardEngine `json:"global_lock"`
	Pipelined        GuardEngine `json:"pipelined"`
	SpeedupReqPerSec float64     `json:"speedup_req_per_sec"`
}

// ReadGuardReport loads and sanity-checks a recorded benchmark file.
func ReadGuardReport(path string) (*GuardReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading %s: %w", path, err)
	}
	var r GuardReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if len(r.Configs) == 0 {
		r.Configs = []GuardConfig{{
			Label:            "legacy",
			GlobalLock:       r.GlobalLock,
			Pipelined:        r.Pipelined,
			SpeedupReqPerSec: r.SpeedupReqPerSec,
		}}
	}
	for i := range r.Configs {
		c := &r.Configs[i]
		if c.GlobalLock.ReqPerSec <= 0 || c.Pipelined.ReqPerSec <= 0 {
			return nil, fmt.Errorf("bench: %s config %q records non-positive throughput (global_lock=%.1f pipelined=%.1f)",
				path, c.Label, c.GlobalLock.ReqPerSec, c.Pipelined.ReqPerSec)
		}
		if c.Pipelined.AllocsPerCell < 0 || c.GlobalLock.AllocsPerCell < 0 {
			return nil, fmt.Errorf("bench: %s config %q records negative allocs/cell", path, c.Label)
		}
	}
	return &r, nil
}

// Speedup returns the worst pipelined-over-global-lock throughput ratio
// across the recorded configurations.
func (r *GuardReport) Speedup() float64 {
	worst := r.Configs[0].Speedup()
	for _, c := range r.Configs[1:] {
		if s := c.Speedup(); s < worst {
			worst = s
		}
	}
	return worst
}

// CheckSpeedup fails when any recorded configuration shows the pipelined
// engine slower than the global-lock baseline by more than minRatio allows.
// CI runs it with minRatio 1.0: the pipeline must never regress below the
// baseline it exists to beat. Each config's own speedup figure is
// cross-checked so a hand-edited report cannot disagree with its inputs.
func (r *GuardReport) CheckSpeedup(minRatio float64) error {
	for i := range r.Configs {
		c := &r.Configs[i]
		s := c.Speedup()
		if s < minRatio {
			return fmt.Errorf("bench: config %q: pipelined %.1f req/s is %.3fx the global-lock baseline %.1f req/s (minimum %.2fx)",
				c.Label, c.Pipelined.ReqPerSec, s, c.GlobalLock.ReqPerSec, minRatio)
		}
		if c.SpeedupReqPerSec != 0 {
			const tol = 1e-6
			if d := s - c.SpeedupReqPerSec; d > tol || d < -tol {
				return fmt.Errorf("bench: config %q: recorded speedup %.6f disagrees with throughputs (%.6f) — stale or edited report",
					c.Label, c.SpeedupReqPerSec, s)
			}
		}
	}
	return nil
}

// CheckObservabilityOverhead fails when the recorded tracing-on run costs
// more than maxRatio times the tracing-off run per cell. CI runs it with
// 1.05: the observability layer must stay within 5% of the untraced
// engine, or it is no longer cheap enough to leave on in production.
// Reports recorded before the observability layer (section absent) are
// skipped. The recorded ratio is cross-checked against its inputs so a
// hand-edited report cannot disagree with itself. The budget comparison
// uses EffectiveRatio: a recorded ratio below 1.0 is measurement noise
// (tracing cannot make the engine faster) and is treated as "no
// measurable overhead" rather than banked as negative cost.
func (r *GuardReport) CheckObservabilityOverhead(maxRatio float64) error {
	o := r.Observability
	if o == nil {
		return nil
	}
	if o.TracingOnNsPerCell <= 0 || o.TracingOffNsPerCell <= 0 {
		return fmt.Errorf("bench: observability record has non-positive ns/cell (on=%.1f off=%.1f)",
			o.TracingOnNsPerCell, o.TracingOffNsPerCell)
	}
	if o.OverheadRatio != 0 {
		const tol = 1e-6
		if d := o.Ratio() - o.OverheadRatio; d > tol || d < -tol {
			return fmt.Errorf("bench: recorded observability overhead %.6f disagrees with its inputs (%.6f) — stale or edited report",
				o.OverheadRatio, o.Ratio())
		}
	}
	if ratio := o.EffectiveRatio(); ratio > maxRatio {
		return fmt.Errorf("bench: tracing-on costs %.1f ns/cell vs %.1f off (%.3fx, budget %.2fx) — the observability layer is no longer cheap",
			o.TracingOnNsPerCell, o.TracingOffNsPerCell, ratio, maxRatio)
	}
	// The detector pairing (SLO burn engine + live flight recorder vs
	// tracing-only) is gated against the same budget. Reports recorded
	// before the diagnosis layer (fields zero) are skipped.
	if o.DetectorOnNsPerCell != 0 || o.DetectorOffNsPerCell != 0 {
		if o.DetectorOnNsPerCell <= 0 || o.DetectorOffNsPerCell <= 0 {
			return fmt.Errorf("bench: detector record has non-positive ns/cell (on=%.1f off=%.1f)",
				o.DetectorOnNsPerCell, o.DetectorOffNsPerCell)
		}
		if o.DetectorOverheadRatio != 0 {
			const tol = 1e-6
			if d := o.DetectorRatio() - o.DetectorOverheadRatio; d > tol || d < -tol {
				return fmt.Errorf("bench: recorded detector overhead %.6f disagrees with its inputs (%.6f) — stale or edited report",
					o.DetectorOverheadRatio, o.DetectorRatio())
			}
		}
		if ratio := o.DetectorEffectiveRatio(); ratio > maxRatio {
			return fmt.Errorf("bench: detector-on costs %.1f ns/cell vs %.1f off (%.3fx, budget %.2fx) — the diagnosis layer is no longer cheap",
				o.DetectorOnNsPerCell, o.DetectorOffNsPerCell, ratio, maxRatio)
		}
	}
	return nil
}

// CheckJournalOverhead fails when the recorded journal-on run costs more
// than maxRatio times the journal-off run per cell. CI runs it with 1.10:
// group commit at sync=batch must keep durability within 10% of the
// journal-off engine, or batching is no longer absorbing the fsync cost.
// Reports recorded before the durable journal (section absent) are skipped.
// The recorded ratio is cross-checked against its inputs so a hand-edited
// report cannot disagree with itself.
func (r *GuardReport) CheckJournalOverhead(maxRatio float64) error {
	d := r.Durability
	if d == nil {
		return nil
	}
	if d.JournalOnNsPerCell <= 0 || d.JournalOffNsPerCell <= 0 {
		return fmt.Errorf("bench: durability record has non-positive ns/cell (on=%.1f off=%.1f)",
			d.JournalOnNsPerCell, d.JournalOffNsPerCell)
	}
	ratio := d.Ratio()
	if d.OverheadRatio != 0 {
		const tol = 1e-6
		if diff := ratio - d.OverheadRatio; diff > tol || diff < -tol {
			return fmt.Errorf("bench: recorded journal overhead %.6f disagrees with its inputs (%.6f) — stale or edited report",
				d.OverheadRatio, ratio)
		}
	}
	if ratio > maxRatio {
		return fmt.Errorf("bench: journal-on costs %.1f ns/cell vs %.1f off (%.3fx, budget %.2fx) — group commit is no longer absorbing the durability cost",
			d.JournalOnNsPerCell, d.JournalOffNsPerCell, ratio, maxRatio)
	}
	return nil
}

// CheckScaling fails when the recorded 2-pool run does not reach minRatio
// times the 1-pool run's throughput on the same mixed workload. CI runs it
// with 1.5: two device pools must buy at least half a pool's worth of real
// speedup, or locality-aware dispatch has stopped overlapping device time.
// Reports recorded before device pools (section absent) are skipped. The
// recorded speedup is cross-checked against the curve's own points so a
// hand-edited report cannot disagree with itself.
func (r *GuardReport) CheckScaling(minRatio float64) error {
	s := r.Scaling
	if s == nil {
		return nil
	}
	p1, p2 := s.point(1), s.point(2)
	if p1 == nil || p2 == nil {
		return fmt.Errorf("bench: scaling record is missing the 1- or 2-pool point (%d points)", len(s.Points))
	}
	for _, p := range s.Points {
		if p.ReqPerSec <= 0 {
			return fmt.Errorf("bench: scaling point %d pools records non-positive throughput %.1f", p.Pools, p.ReqPerSec)
		}
	}
	ratio := p2.ReqPerSec / p1.ReqPerSec
	if s.Speedup2x1 != 0 {
		const tol = 1e-6
		if d := ratio - s.Speedup2x1; d > tol || d < -tol {
			return fmt.Errorf("bench: recorded scaling speedup %.6f disagrees with its points (%.6f) — stale or edited report",
				s.Speedup2x1, ratio)
		}
	}
	if ratio < minRatio {
		return fmt.Errorf("bench: 2 pools serve %.1f req/s vs %.1f on 1 pool (%.3fx, minimum %.2fx) — device pools are no longer scaling",
			p2.ReqPerSec, p1.ReqPerSec, ratio, minRatio)
	}
	return nil
}

// CheckPolicyTail fails when the recorded policy-on arm of the bursty
// workload shows a worse P99 than the static arm by more than maxRatio
// allows, or sheds without buying deadline protection. CI runs it with 1.0:
// under the recorded burst the policy arm must hold its served-request tail
// at or below the static arm's AND miss strictly fewer deadlines — shedding
// that does not protect admitted requests is pure loss. Reports recorded
// before the policy layer (section absent) are skipped. The recorded tail
// ratio is cross-checked against its inputs so a hand-edited report cannot
// disagree with itself.
func (r *GuardReport) CheckPolicyTail(maxRatio float64) error {
	p := r.Policy
	if p == nil {
		return nil
	}
	if p.StaticP99Ns <= 0 || p.PolicyP99Ns <= 0 {
		return fmt.Errorf("bench: policy record has non-positive P99 (static=%.1f policy=%.1f)",
			p.StaticP99Ns, p.PolicyP99Ns)
	}
	ratio := p.Ratio()
	if p.TailRatio != 0 {
		const tol = 1e-6
		if d := ratio - p.TailRatio; d > tol || d < -tol {
			return fmt.Errorf("bench: recorded policy tail ratio %.6f disagrees with its inputs (%.6f) — stale or edited report",
				p.TailRatio, ratio)
		}
	}
	if ratio > maxRatio {
		return fmt.Errorf("bench: policy-on P99 %.1f ns vs %.1f static (%.3fx, budget %.2fx) — the control layer is hurting the tail it exists to protect",
			p.PolicyP99Ns, p.StaticP99Ns, ratio, maxRatio)
	}
	if p.PolicyMisses >= p.StaticMisses {
		return fmt.Errorf("bench: policy arm missed %d deadlines vs %d static (shed %d) — shedding bought no deadline protection",
			p.PolicyMisses, p.StaticMisses, p.PolicyShed)
	}
	return nil
}

// CheckQuantRecord fails when the recorded int8-vs-f32 comparison is
// incomplete (no cells, non-positive timings), disagrees with itself (a
// recorded speedup that is not the ratio of its own timings — a stale or
// hand-edited report), or shows accuracy drift beyond the rnn package's CI
// gates (max abs error and end-of-sequence cosine — see DESIGN.md §14).
// There is deliberately no speed floor: since the float32 kernel was
// vectorised the SWAR int8 tier is no faster than float32 (the record says by
// how much), and what it still buys is 4x smaller weights. Reports recorded
// before the quantized tier (section absent) are skipped.
func (r *GuardReport) CheckQuantRecord(maxAbsErr, minCosine float64) error {
	q := r.Quantization
	if q == nil {
		return nil
	}
	if len(q.Cells) == 0 {
		return fmt.Errorf("bench: quantization record has no cells")
	}
	for i := range q.Cells {
		c := &q.Cells[i]
		if c.F32NsPerStep <= 0 || c.Int8NsPerStep <= 0 {
			return fmt.Errorf("bench: quantization record for %q has non-positive ns/step (f32=%.1f int8=%.1f)",
				c.Cell, c.F32NsPerStep, c.Int8NsPerStep)
		}
		if c.Speedup != 0 {
			const tol = 1e-6
			if d := c.Ratio() - c.Speedup; d > tol || d < -tol {
				return fmt.Errorf("bench: recorded %s quant speedup %.6f disagrees with its timings (%.6f) — stale or edited report",
					c.Cell, c.Speedup, c.Ratio())
			}
		}
		if c.MaxAbsErr > maxAbsErr {
			return fmt.Errorf("bench: int8 %s drifts %.4f max abs error from the f32 oracle (gate %.3f)",
				c.Cell, c.MaxAbsErr, maxAbsErr)
		}
		if c.MinCosine != 0 && c.MinCosine < minCosine {
			return fmt.Errorf("bench: int8 %s end-of-sequence cosine %.5f below gate %.4f",
				c.Cell, c.MinCosine, minCosine)
		}
	}
	return nil
}

// CheckAllocs fails when any recorded configuration's pipelined engine
// allocates more than maxPerCell heap objects per executed cell. The figure
// is process-wide (it includes admission and client work), so the budget is
// an end-to-end ceiling: once the worker loop is allocation-free, exceeding
// it means allocations crept back into the serving path. Configs recorded
// before allocation tracking (allocs_per_cell absent or zero) are skipped,
// keeping the guard usable against legacy reports.
func (r *GuardReport) CheckAllocs(maxPerCell float64) error {
	for i := range r.Configs {
		c := &r.Configs[i]
		if c.Pipelined.AllocsPerCell == 0 {
			continue
		}
		if c.Pipelined.AllocsPerCell > maxPerCell {
			return fmt.Errorf("bench: config %q: pipelined engine allocates %.1f objects/cell (budget %.1f) — the zero-allocation hot path has regressed",
				c.Label, c.Pipelined.AllocsPerCell, maxPerCell)
		}
	}
	return nil
}

package sim

import (
	"time"

	"batchmaker/internal/dataset"
)

// Workload generates request shapes for a run.
type Workload interface {
	Next() Shape
}

// LSTMWorkload samples chain lengths.
type LSTMWorkload struct{ Lengths dataset.LengthSampler }

// Next implements Workload.
func (w *LSTMWorkload) Next() Shape { return Shape{Kind: KindChain, Len: w.Lengths.Sample()} }

// Seq2SeqWorkload samples correlated (src, dst) pairs.
type Seq2SeqWorkload struct{ Pairs *dataset.PairSampler }

// Next implements Workload.
func (w *Seq2SeqWorkload) Next() Shape {
	src, dst := w.Pairs.Sample()
	return Shape{Kind: KindSeq2Seq, SrcLen: src, DstLen: dst}
}

// TreeWorkload samples random parse trees.
type TreeWorkload struct{ Trees *dataset.TreeSampler }

// Next implements Workload.
func (w *TreeWorkload) Next() Shape { return Shape{Kind: KindTree, Tree: w.Trees.Sample()} }

// FixedWorkload replays one shape forever (fixed-length and fixed-tree
// experiments).
type FixedWorkload struct{ Shape Shape }

// Next implements Workload.
func (w *FixedWorkload) Next() Shape { return w.Shape }

// RatePhase scales the base arrival rate over one span of virtual time, so
// a run can script a burst profile (Poisson→spike→quiet) instead of a flat
// rate. Phases are consulted in order; virtual time past the last phase
// reverts to scale 1.
type RatePhase struct {
	// Until is the virtual instant (from run start) this phase ends.
	Until time.Duration
	// RateScale multiplies RatePerSec while the phase is active. Zero or
	// negative means (effectively) no arrivals — a quiet phase.
	RateScale float64
}

// RunConfig drives one load point of a serving experiment.
type RunConfig struct {
	// RatePerSec is the open-loop Poisson arrival rate.
	RatePerSec float64
	// Duration is the measured virtual time span (after warmup).
	Duration time.Duration
	// Warmup requests arriving before this instant are executed but not
	// measured.
	Warmup time.Duration
	// Seed drives arrivals (workload samplers carry their own seeds).
	Seed uint64
	// Phases, when non-empty, scripts a bursty arrival profile by scaling
	// RatePerSec over time (see RatePhase). The underlying Poisson stream
	// is one seeded source whose gaps are stretched or compressed, so the
	// profile is deterministic per seed.
	Phases []RatePhase
}

// Arrival is one request of a schedule. Times are absolute virtual
// instants; zero means none.
type Arrival struct {
	At time.Duration
	// Shape is built into a graph only at admission, so a long sweep never
	// holds every request's graph.
	Shape Shape
	// Cancel and Expire end the request early with that outcome; the
	// earlier of the two wins. Expire is also the request's EDF deadline,
	// as in the live server, unless BatchMakerConfig.Deadline sets one.
	Cancel, Expire time.Duration
}

// Schedule yields a run's arrivals in time order, one per call; false
// ends it.
type Schedule func() (Arrival, bool)

// Replay returns the schedule of a fixed arrival list.
func Replay(as []Arrival) Schedule {
	return func() (Arrival, bool) {
		if len(as) == 0 {
			return Arrival{}, false
		}
		a := as[0]
		as = as[1:]
		return a, true
	}
}

// poisson returns the open-loop schedule of one load point: seeded Poisson
// arrivals at run.RatePerSec, stretched or compressed by run.Phases, up to
// the end of the measured window, each with wl's next shape. Shapes are
// drawn in arrival order whatever happens to the request later, so arms of
// one seed that admit differently still see the same requests.
func poisson(wl Workload, run RunConfig) Schedule {
	gaps, end, at := dataset.NewPoisson(run.Seed, run.RatePerSec), run.end(), time.Duration(0)
	return func() (Arrival, bool) {
		for at <= end {
			scale, until := run.phase(at)
			if scale <= 0 {
				at = until // a quiet phase consumes no gap
				continue
			}
			if at += time.Duration(float64(gaps.NextGapNanos()) / scale); at > end {
				break
			}
			return Arrival{At: at, Shape: wl.Next()}, true
		}
		return Arrival{}, false
	}
}

// phase returns the arrival-rate multiplier active at virtual time t and
// the instant that phase ends: scale 1 until the run's end once t is past
// the scripted profile.
func (c RunConfig) phase(t time.Duration) (scale float64, until time.Duration) {
	for _, p := range c.Phases {
		if t < p.Until {
			return p.RateScale, p.Until
		}
	}
	return 1, c.end()
}

// measuredWindow returns the virtual time at which admission stops.
func (c RunConfig) end() time.Duration { return c.Warmup + c.Duration }

// collector accumulates per-request stats into a RunResult. Latency
// percentiles cover requests that arrived inside the measured window;
// achieved throughput counts completions that fell inside the window (the
// standard open-loop convention, so an overloaded run reports its saturation
// throughput rather than the offered rate).
type collector struct {
	cfg        RunConfig
	res        *RunResult
	windowDone int
}

func newCollector(system string, cfg RunConfig) *collector {
	return &collector{
		cfg: cfg,
		res: &RunResult{
			System:     system,
			OfferedQPS: cfg.RatePerSec,
			Duration:   cfg.Duration,
		},
	}
}

func (c *collector) record(arrival, firstExec, completion time.Duration) {
	if completion >= c.cfg.Warmup && completion <= c.cfg.end() {
		c.windowDone++
	}
	if arrival < c.cfg.Warmup {
		return
	}
	c.res.Latency.Add(completion - arrival)
	c.res.Queuing.Add(firstExec - arrival)
	c.res.Computation.Add(completion - firstExec)
}

func (c *collector) result() *RunResult {
	c.res.Completed = c.windowDone
	return c.res
}

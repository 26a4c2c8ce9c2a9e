// Package metrics provides the latency/throughput instrumentation used by
// the experiment harness: percentile recorders, CDFs, and the per-request
// queuing/computation breakdown of the paper's §7.3 analysis.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Recorder accumulates duration samples and answers percentile queries.
// The zero value is ready to use.
//
// Ownership: a Recorder is NOT safe for concurrent use — Add mutates the
// sample slice and even read-only-looking queries (Percentile, Max, CDF)
// sort it in place. It is owned by a single goroutine at a time: the sim
// harness and bench drivers fill recorders while running and only query
// them after the run joins. Anything that needs quantiles concurrently
// with ingestion (the live server's metrics registry) must use
// obsv.Quantiles, which carries its own lock, instead.
type Recorder struct {
	samples []time.Duration
	sorted  bool
}

// Add appends one sample.
func (r *Recorder) Add(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (r *Recorder) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var sum float64
	for _, d := range r.samples {
		sum += float64(d)
	}
	return time.Duration(sum / float64(len(r.samples)))
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, or 0 with no samples.
func (r *Recorder) Percentile(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of (0,100]", p))
	}
	r.sort()
	rank := int(math.Ceil(p / 100 * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	return r.samples[rank-1]
}

// P50, P90 and P99 are the percentiles the paper reports.
func (r *Recorder) P50() time.Duration { return r.Percentile(50) }

// P90 returns the 90th percentile.
func (r *Recorder) P90() time.Duration { return r.Percentile(90) }

// P99 returns the 99th percentile.
func (r *Recorder) P99() time.Duration { return r.Percentile(99) }

// Max returns the largest sample.
func (r *Recorder) Max() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	return r.samples[len(r.samples)-1]
}

// Min returns the smallest sample.
func (r *Recorder) Min() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	return r.samples[0]
}

// CDF returns up to points (time, cumulative fraction) pairs evenly spread
// over the sorted samples, suitable for plotting the paper's Figure 9/10
// style curves.
func (r *Recorder) CDF(points int) []CDFPoint {
	if len(r.samples) == 0 || points <= 0 {
		return nil
	}
	r.sort()
	if points > len(r.samples) {
		points = len(r.samples)
	}
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		idx := i*len(r.samples)/points - 1
		out = append(out, CDFPoint{
			Value:    r.samples[idx],
			Fraction: float64(idx+1) / float64(len(r.samples)),
		})
	}
	return out
}

func (r *Recorder) sort() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    time.Duration
	Fraction float64
}

// RequestStats is the per-request breakdown of §7.3: queuing time (arrival
// to first execution) and computation time (first execution to result).
type RequestStats struct {
	Arrival    time.Duration // virtual arrival time
	FirstExec  time.Duration // virtual time the first cell started executing
	Completion time.Duration // virtual time the last cell finished
}

// Queuing returns the request's queuing delay.
func (s RequestStats) Queuing() time.Duration { return s.FirstExec - s.Arrival }

// Computation returns the span from first execution to the result return.
func (s RequestStats) Computation() time.Duration { return s.Completion - s.FirstExec }

// Latency returns total request latency.
func (s RequestStats) Latency() time.Duration { return s.Completion - s.Arrival }

// RunResult aggregates one serving experiment run (one load point of a
// throughput/latency plot).
type RunResult struct {
	System     string
	OfferedQPS float64 // open-loop arrival rate
	Duration   time.Duration
	Completed  int

	Latency     Recorder
	Queuing     Recorder
	Computation Recorder

	// Extra carries system-specific counters (e.g. "tasks", "migrations"
	// for the BatchMaker simulation's locality accounting).
	Extra map[string]float64
}

// AddExtra accumulates a named counter.
func (r *RunResult) AddExtra(name string, v float64) {
	if r.Extra == nil {
		r.Extra = make(map[string]float64)
	}
	r.Extra[name] += v
}

// Throughput returns completed requests per second of virtual time.
func (r *RunResult) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Duration.Seconds()
}

// Row formats the run as the harness's standard table row.
func (r *RunResult) Row() string {
	return fmt.Sprintf("%-22s offered=%8.0f req/s  tput=%8.0f req/s  p50=%8.2fms  p90=%8.2fms  p99=%8.2fms",
		r.System, r.OfferedQPS, r.Throughput(),
		ms(r.Latency.P50()), ms(r.Latency.P90()), ms(r.Latency.P99()))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Ms exposes the millisecond conversion for harness printing.
func Ms(d time.Duration) float64 { return ms(d) }

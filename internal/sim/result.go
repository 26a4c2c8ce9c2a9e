package sim

import (
	"slices"
	"time"

	"batchmaker/internal/obsv"
)

// Recorder accumulates duration samples and answers percentile queries.
// The zero value is ready to use.
//
// Ownership: a Recorder is NOT safe for concurrent use — Add mutates the
// sample slice and even read-only-looking queries (Percentile, Min, CDF)
// sort it in place. A simulation run fills its recorders on its one event
// goroutine, and callers query them only after the run returns. Unlike
// obsv.Quantiles it keeps every sample, so the tables the harness prints
// are exact; both answer percentiles by obsv.NearestRank.
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

// Percentile returns the p-th percentile (0 < p <= 100) by the
// nearest-rank rule, or 0 with no samples.
func (r *Recorder) Percentile(p float64) time.Duration {
	r.sort()
	return obsv.NearestRank(r.samples, p)
}

// P50, P90 and P99 are the percentiles the paper reports.
func (r *Recorder) P50() time.Duration { return r.Percentile(50) }

// P90 returns the 90th percentile.
func (r *Recorder) P90() time.Duration { return r.Percentile(90) }

// P99 returns the 99th percentile.
func (r *Recorder) P99() time.Duration { return r.Percentile(99) }

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
		slices.Sort(r.samples)
		r.sorted = true
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    time.Duration
	Fraction float64
}

// RunResult aggregates one serving simulation run (one load point of a
// throughput/latency plot).
type RunResult struct {
	System     string
	OfferedQPS float64 // open-loop arrival rate
	Duration   time.Duration
	Completed  int

	// Latency, Queuing and Computation are the §7.3 breakdown of each
	// request that arrived inside the measured window: arrival to result,
	// arrival to first execution, first execution to result.
	Latency     Recorder
	Queuing     Recorder
	Computation Recorder

	// The BatchMaker simulation's counters (zero for the baselines).
	// Tasks and BatchedCells count executed tasks and the cells they
	// batched.
	Tasks, BatchedCells int
	// MigratedRequests counts requests whose state a task copied from
	// another device; MigrationTasks counts the tasks that paid such a
	// copy, RemoteTasks those that fetched their weights from another
	// device, and PinMoves the scheduler's pin rebalances.
	MigratedRequests, MigrationTasks, RemoteTasks, PinMoves int
	// PolicySheds counts arrivals the SLA feasibility rule shed;
	// DeadlineMisses counts served requests that finished past their SLA
	// deadline.
	PolicySheds, DeadlineMisses int
}

// Throughput returns completed requests per second of virtual time.
func (r *RunResult) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Duration.Seconds()
}

package obsv

import (
	"sort"
	"strconv"
	"time"
)

// Canonical metric family names. The live server publishes them; the
// conformance harness reconciles them against its ground truth. The golden
// exposition test pins them.
const (
	MetricRequestsTotal       = "batchmaker_requests_total"
	MetricCellPanics          = "batchmaker_cell_panics_total"
	MetricInflightRequests    = "batchmaker_inflight_requests"
	MetricQueuedCells         = "batchmaker_queued_cells"
	MetricReadyQueueDepth     = "batchmaker_ready_queue_depth"
	MetricWorkerQueueDepth    = "batchmaker_worker_queue_depth"
	MetricTasksExecuted       = "batchmaker_tasks_executed_total"
	MetricCellsExecuted       = "batchmaker_cells_executed_total"
	MetricBatchOccupancy      = "batchmaker_batch_occupancy"
	MetricBatchSlotsUsed      = "batchmaker_batch_slots_used_total"
	MetricBatchSlotsCap       = "batchmaker_batch_slots_total"
	MetricPaddingWasteRatio   = "batchmaker_padding_waste_ratio"
	MetricArenaHighWaterBytes = "batchmaker_arena_high_water_bytes"
	MetricWorkerBusySeconds   = "batchmaker_worker_busy_seconds_total"
	MetricQueuingSeconds      = "batchmaker_request_queuing_seconds"
	MetricComputationSeconds  = "batchmaker_request_computation_seconds"
	MetricDispatchSeconds     = "batchmaker_dispatch_seconds"
	MetricSpanWritten         = "batchmaker_span_records_written"
	MetricSpanDropped         = "batchmaker_span_records_dropped"
)

// Request outcome label values for MetricRequestsTotal.
const (
	OutcomeAdmitted  = "admitted"
	OutcomeCompleted = "completed"
	OutcomeFailed    = "failed"
	OutcomeRejected  = "rejected"
	OutcomeExpired   = "expired"
	OutcomeCancelled = "cancelled"
)

// BatchOccupancyBuckets are the inclusive upper bounds of the
// batch-occupancy histogram (rows actually batched per executed task).
var BatchOccupancyBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// quantileWindow is the bounded sample window behind the latency summaries.
const quantileWindow = 4096

var latencyQuantiles = []float64{0.5, 0.9, 0.99}

// TypeMetrics groups one cell type's handles.
type TypeMetrics struct {
	// Ready is the scheduler's ready-queue depth for this cell type.
	Ready *Gauge
	// Panics counts recovered panics of this cell type — a persistently
	// growing value points at a broken kernel.
	Panics *Counter
}

// ExecMetrics is one (worker, cell type) pair's execution counters. The
// worker is their only writer; per-type and per-worker totals are sums over
// these cells.
type ExecMetrics struct {
	// Tasks counts executed batched tasks.
	Tasks *Counter
	// Cells counts executed cells (live batch rows).
	Cells *Counter
}

// WorkerMetrics groups the per-worker handles.
type WorkerMetrics struct {
	// Depth is the worker's task-queue depth (scheduler's view).
	Depth *Gauge
	// ArenaHighWater is the worker arena's high-water mark in bytes.
	ArenaHighWater *Gauge
	// Busy accumulates the worker's gather+execute time in nanoseconds
	// (exposed in seconds); Busy over cells executed is the per-row cost of
	// the batched hot path.
	Busy *Counter
}

// ServingMetrics registers the serving stack's metric families in a
// Registry. Every family is registered at construction, for the engine's
// whole type table and worker count, so the per-type and per-worker handles
// are plain slices indexed by the engine's type id and worker index. Built
// over a nil registry every handle is nil, and nil handles are no-ops, so
// instrumented code never branches on "is observability on".
type ServingMetrics struct {
	reg *Registry

	// Request lifecycle counters, one per outcome label.
	Admitted, Completed, Failed, Rejected, Expired, Cancelled *Counter
	// Inflight is the number of admitted, unresolved requests; QueuedCells
	// is the admission controller's queued-cell backlog.
	Inflight, QueuedCells *Gauge
	// BatchOccupancy is the distribution of live rows per executed task.
	BatchOccupancy *Histogram
	// SlotsUsed / SlotsCap accumulate live rows vs maximum batch slots per
	// executed task; their ratio's complement is the padding-waste ratio.
	SlotsUsed, SlotsCap *Counter
	// PaddingWaste = 1 − SlotsUsed/SlotsCap, refreshed at exposition time.
	PaddingWaste *FloatGauge
	// Queuing / Computation are the paper's latency split: admit→first-exec
	// and first-exec→completion, as windowed quantiles.
	Queuing, Computation *Quantiles
	// Dispatch is the scheduler's per-round dispatch latency (Schedule call
	// plus hand-off to the worker), as windowed quantiles.
	Dispatch *Quantiles

	// Types is each cell type's handles, indexed by the engine's type id.
	Types []TypeMetrics
	// Workers is each worker's handles, indexed by worker.
	Workers []WorkerMetrics
	// Exec[w][t] is worker w's execution counters for type t.
	Exec [][]ExecMetrics

	typeNames []string // indexed by type id
}

// NewServingMetrics registers the serving families in reg for the cell
// types typeNames (indexed by the engine's type id) and workers workers.
// reg may be nil, yielding an inert instance whose handles are all no-ops.
func NewServingMetrics(reg *Registry, typeNames []string, workers int) *ServingMetrics {
	m := &ServingMetrics{
		reg:       reg,
		typeNames: append([]string(nil), typeNames...),
		Types:     make([]TypeMetrics, len(typeNames)),
		Workers:   make([]WorkerMetrics, workers),
		Exec:      make([][]ExecMetrics, workers),
	}
	outcome := func(v string) *Counter {
		return reg.CounterVec(MetricRequestsTotal,
			"Requests by terminal outcome (admitted counts entries).",
			[]string{"outcome"}, []string{v})
	}
	m.Admitted = outcome(OutcomeAdmitted)
	m.Completed = outcome(OutcomeCompleted)
	m.Failed = outcome(OutcomeFailed)
	m.Rejected = outcome(OutcomeRejected)
	m.Expired = outcome(OutcomeExpired)
	m.Cancelled = outcome(OutcomeCancelled)
	m.Inflight = reg.Gauge(MetricInflightRequests, "Admitted requests not yet resolved.")
	m.QueuedCells = reg.Gauge(MetricQueuedCells, "Cells admitted but not yet executed (admission backlog).")
	m.BatchOccupancy = reg.Histogram(MetricBatchOccupancy,
		"Live rows batched per executed task.", BatchOccupancyBuckets)
	m.SlotsUsed = reg.Counter(MetricBatchSlotsUsed, "Live batch rows executed.")
	m.SlotsCap = reg.Counter(MetricBatchSlotsCap, "Maximum batch slots across executed tasks.")
	m.PaddingWaste = reg.FloatGauge(MetricPaddingWasteRatio,
		"1 - used/capacity batch slots: fraction of batch capacity wasted.")
	m.Queuing = reg.Summary(MetricQueuingSeconds,
		"Admit to first cell execution (paper's queuing latency).",
		quantileWindow, latencyQuantiles)
	m.Computation = reg.Summary(MetricComputationSeconds,
		"First cell execution to completion (paper's computation latency).",
		quantileWindow, latencyQuantiles)
	m.Dispatch = reg.Summary(MetricDispatchSeconds,
		"Scheduler dispatch round: Schedule call plus hand-off to the worker.",
		quantileWindow, latencyQuantiles)
	typeLabel := []string{"cell_type"}
	for t, key := range typeNames {
		m.Types[t] = TypeMetrics{
			Ready: reg.GaugeVec(MetricReadyQueueDepth,
				"Scheduler ready-queue depth (cells ready to batch).",
				typeLabel, []string{key}),
			Panics: reg.CounterVec(MetricCellPanics,
				"Recovered cell panics.", typeLabel, []string{key}),
		}
	}
	workerLabel, execLabels := []string{"worker"}, []string{"cell_type", "worker"}
	for w := range m.Workers {
		id := strconv.Itoa(w)
		m.Workers[w] = WorkerMetrics{
			Depth: reg.GaugeVec(MetricWorkerQueueDepth,
				"Tasks queued at the worker (scheduler's view).", workerLabel, []string{id}),
			ArenaHighWater: reg.GaugeVec(MetricArenaHighWaterBytes,
				"Worker tensor-arena high-water mark in bytes.", workerLabel, []string{id}),
			Busy: reg.SecondsCounterVec(MetricWorkerBusySeconds,
				"Worker time spent gathering and executing batched tasks.", workerLabel, []string{id}),
		}
		m.Exec[w] = make([]ExecMetrics, len(typeNames))
		for t, key := range typeNames {
			vals := []string{key, id}
			m.Exec[w][t] = ExecMetrics{
				Tasks: reg.CounterVec(MetricTasksExecuted, "Executed batched tasks.", execLabels, vals),
				Cells: reg.CounterVec(MetricCellsExecuted, "Executed cells (live batch rows).", execLabels, vals),
			}
		}
	}
	reg.AddCollector(m.refreshPadding)
	return m
}

// Registry returns the backing registry (nil for an inert instance).
func (m *ServingMetrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

func (m *ServingMetrics) refreshPadding() {
	used, cap := m.SlotsUsed.Value(), m.SlotsCap.Value()
	if cap > 0 {
		m.PaddingWaste.Set(1 - float64(used)/float64(cap))
	}
}

// PanicsTotal sums recovered cell panics over all cell types.
func (m *ServingMetrics) PanicsTotal() int64 {
	if m == nil {
		return 0
	}
	var n int64
	for _, t := range m.Types {
		n += t.Panics.Value()
	}
	return n
}

// TypeStat is one cell type's executed-work totals, for summaries.
type TypeStat struct {
	Key          string
	Tasks, Cells int64
}

// TypesByCells returns per-type execution totals (summed over workers)
// sorted by cells executed, descending (ties broken by key for determinism).
func (m *ServingMetrics) TypesByCells() []TypeStat {
	if m == nil {
		return nil
	}
	stats := make([]TypeStat, len(m.typeNames))
	for t, key := range m.typeNames {
		stats[t].Key = key
		for w := range m.Exec {
			stats[t].Tasks += m.Exec[w][t].Tasks.Value()
			stats[t].Cells += m.Exec[w][t].Cells.Value()
		}
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Cells != stats[j].Cells {
			return stats[i].Cells > stats[j].Cells
		}
		return stats[i].Key < stats[j].Key
	})
	return stats
}

// ObserveLatencySplit records one completed request's queuing and
// computation durations.
func (m *ServingMetrics) ObserveLatencySplit(queuing, computation time.Duration) {
	if m == nil {
		return
	}
	m.Queuing.Observe(queuing)
	m.Computation.Observe(computation)
}

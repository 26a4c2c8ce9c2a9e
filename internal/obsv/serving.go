package obsv

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// Canonical metric family names. Every surface that exposes serving metrics
// (live server, sim runner, conformance harness) uses these exact names so
// dashboards work unchanged across real-time and virtual-time runs. The
// golden exposition test pins them.
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
	MetricDeviceReadyDepth    = "batchmaker_device_ready_depth"
	MetricDeviceCopies        = "batchmaker_device_copies_total"
	MetricDevicePinMoves      = "batchmaker_device_pin_moves_total"
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

// TypeMetrics groups the per-cell-type handles a hot path caches once.
type TypeMetrics struct {
	// Ready is the scheduler's ready-queue depth for this cell type.
	Ready *Gauge
	// Panics counts recovered panics of this cell type — a persistently
	// growing value points at a broken kernel.
	Panics *Counter
}

// ExecMetrics is one (cell type, worker) pair's execution counters. The
// worker is their only writer; per-type, per-worker and per-device totals
// are all sums over these cells.
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

// DeviceMetrics groups the per-device handles (§5 multi-device sharding).
type DeviceMetrics struct {
	// Ready is the device's attributed ready depth: each resident cell
	// type's ready nodes divided by its replica count.
	Ready *FloatGauge
	// Copies counts dispatched tasks that paid a cross-device copy (weight
	// fetch on a remote steal, or a migrated request's state movement).
	Copies *Counter
}

// ServingMetrics registers the serving stack's metric families in a
// Registry and hands out typed cells. All handles are safe on the zero/nil
// receiver path (a nil *ServingMetrics yields nil cells, which are no-ops),
// so instrumented code never branches on "is observability on".
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
	// PinMoves counts scheduler pin rebalances across devices. It is
	// registered with the device families on first Device use (nil, a no-op,
	// until then), so a surface without devices does not export it.
	PinMoves *Counter

	mu      sync.Mutex
	types   map[string]*TypeMetrics
	exec    map[execKey]*ExecMetrics
	workers map[int]*WorkerMetrics
	devices map[int]*DeviceMetrics
}

type execKey struct {
	typ    string
	worker int
}

// NewServingMetrics registers the serving families in reg (which may be
// nil, yielding an inert instance whose handles are all no-ops).
func NewServingMetrics(reg *Registry) *ServingMetrics {
	m := &ServingMetrics{
		reg:     reg,
		types:   make(map[string]*TypeMetrics),
		exec:    make(map[execKey]*ExecMetrics),
		workers: make(map[int]*WorkerMetrics),
		devices: make(map[int]*DeviceMetrics),
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

// Type returns (registering on first use) the per-cell-type handles for
// key. Not for hot paths — call once at setup and cache the result.
func (m *ServingMetrics) Type(key string) *TypeMetrics {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.types[key]; t != nil {
		return t
	}
	t := &TypeMetrics{
		Ready: m.reg.GaugeVec(MetricReadyQueueDepth,
			"Scheduler ready-queue depth (cells ready to batch).",
			[]string{"cell_type"}, []string{key}),
		Panics: m.reg.CounterVec(MetricCellPanics,
			"Recovered cell panics.", []string{"cell_type"}, []string{key}),
	}
	m.types[key] = t
	return t
}

// Exec returns (registering on first use) the execution counters of one
// (cell type, worker) pair. Not for hot paths — the worker caches the result.
func (m *ServingMetrics) Exec(key string, worker int) *ExecMetrics {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := execKey{key, worker}
	if e := m.exec[k]; e != nil {
		return e
	}
	names, vals := []string{"cell_type", "worker"}, []string{key, strconv.Itoa(worker)}
	e := &ExecMetrics{
		Tasks: m.reg.CounterVec(MetricTasksExecuted, "Executed batched tasks.", names, vals),
		Cells: m.reg.CounterVec(MetricCellsExecuted, "Executed cells (live batch rows).", names, vals),
	}
	m.exec[k] = e
	return e
}

// PanicsTotal sums recovered cell panics over all cell types.
func (m *ServingMetrics) PanicsTotal() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, t := range m.types {
		n += t.Panics.Value()
	}
	return n
}

// Worker returns (registering on first use) the per-worker handles.
func (m *ServingMetrics) Worker(id int) *WorkerMetrics {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if w := m.workers[id]; w != nil {
		return w
	}
	label := []string{strconv.Itoa(id)}
	w := &WorkerMetrics{
		Depth: m.reg.GaugeVec(MetricWorkerQueueDepth,
			"Tasks queued at the worker (scheduler's view).",
			[]string{"worker"}, label),
		ArenaHighWater: m.reg.GaugeVec(MetricArenaHighWaterBytes,
			"Worker tensor-arena high-water mark in bytes.",
			[]string{"worker"}, label),
		Busy: m.reg.SecondsCounterVec(MetricWorkerBusySeconds,
			"Worker time spent gathering and executing batched tasks.",
			[]string{"worker"}, label),
	}
	m.workers[id] = w
	return w
}

// Device returns (registering on first use) the per-device handles.
func (m *ServingMetrics) Device(id int) *DeviceMetrics {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if d := m.devices[id]; d != nil {
		return d
	}
	if m.PinMoves == nil {
		m.PinMoves = m.reg.Counter(MetricDevicePinMoves,
			"Cell-type weight pins moved or replicated by the rebalancer.")
	}
	label := []string{strconv.Itoa(id)}
	d := &DeviceMetrics{
		Ready: m.reg.FloatGaugeVec(MetricDeviceReadyDepth,
			"Ready-node depth attributed to the device (resident types / replicas).",
			[]string{"device"}, label),
		Copies: m.reg.CounterVec(MetricDeviceCopies,
			"Dispatched tasks that paid a cross-device copy.",
			[]string{"device"}, label),
	}
	m.devices[id] = d
	return d
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
	m.mu.Lock()
	byKey := make(map[string]TypeStat, len(m.types))
	for k, e := range m.exec {
		ts := byKey[k.typ]
		ts.Key = k.typ
		ts.Tasks += e.Tasks.Value()
		ts.Cells += e.Cells.Value()
		byKey[k.typ] = ts
	}
	m.mu.Unlock()
	stats := make([]TypeStat, 0, len(byKey))
	for _, ts := range byKey {
		stats = append(stats, ts)
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

package obsv

// goldenProm is the pinned Prometheus exposition of goldenObserver().
// Regenerate deliberately with:
//
//	GOLDEN_OUT=/tmp/golden.prom go test ./internal/obsv -run TestRegenPromGolden
//
// and paste the file here.
const goldenProm = `# HELP batchmaker_arena_high_water_bytes Worker tensor-arena high-water mark in bytes.
# TYPE batchmaker_arena_high_water_bytes gauge
batchmaker_arena_high_water_bytes{worker="0"} 4096
# HELP batchmaker_batch_occupancy Live rows batched per executed task.
# TYPE batchmaker_batch_occupancy histogram
batchmaker_batch_occupancy_bucket{le="1"} 1
batchmaker_batch_occupancy_bucket{le="2"} 2
batchmaker_batch_occupancy_bucket{le="4"} 2
batchmaker_batch_occupancy_bucket{le="8"} 5
batchmaker_batch_occupancy_bucket{le="16"} 5
batchmaker_batch_occupancy_bucket{le="32"} 5
batchmaker_batch_occupancy_bucket{le="64"} 6
batchmaker_batch_occupancy_bucket{le="128"} 6
batchmaker_batch_occupancy_bucket{le="256"} 6
batchmaker_batch_occupancy_bucket{le="+Inf"} 7
batchmaker_batch_occupancy_sum 360
batchmaker_batch_occupancy_count 7
# HELP batchmaker_cell_panics_total Recovered cell panics.
# TYPE batchmaker_cell_panics_total counter
batchmaker_cell_panics_total{cell_type="decoder"} 0
batchmaker_cell_panics_total{cell_type="lstm"} 1
# HELP batchmaker_cells_executed_total Executed cells (live batch rows).
# TYPE batchmaker_cells_executed_total counter
batchmaker_cells_executed_total{cell_type="decoder",worker="0"} 6
batchmaker_cells_executed_total{cell_type="lstm",worker="0"} 40
# HELP batchmaker_dispatch_seconds Scheduler dispatch round: Schedule call plus hand-off to the worker.
# TYPE batchmaker_dispatch_seconds summary
batchmaker_dispatch_seconds{quantile="0.5"} 2e-06
batchmaker_dispatch_seconds{quantile="0.9"} 4e-06
batchmaker_dispatch_seconds{quantile="0.99"} 4e-06
batchmaker_dispatch_seconds_sum 1e-05
batchmaker_dispatch_seconds_count 4
# HELP batchmaker_inflight_requests Admitted requests not yet resolved.
# TYPE batchmaker_inflight_requests gauge
batchmaker_inflight_requests 4
# HELP batchmaker_journal_batch_records Records committed per group-commit batch.
# TYPE batchmaker_journal_batch_records histogram
batchmaker_journal_batch_records_bucket{le="1"} 1
batchmaker_journal_batch_records_bucket{le="2"} 1
batchmaker_journal_batch_records_bucket{le="4"} 2
batchmaker_journal_batch_records_bucket{le="8"} 3
batchmaker_journal_batch_records_bucket{le="16"} 3
batchmaker_journal_batch_records_bucket{le="32"} 3
batchmaker_journal_batch_records_bucket{le="64"} 4
batchmaker_journal_batch_records_bucket{le="128"} 4
batchmaker_journal_batch_records_bucket{le="+Inf"} 5
batchmaker_journal_batch_records_sum 276
batchmaker_journal_batch_records_count 5
# HELP batchmaker_journal_bytes_written_total Journal bytes written, framing included.
# TYPE batchmaker_journal_bytes_written_total counter
batchmaker_journal_bytes_written_total 2048
# HELP batchmaker_journal_commit_seconds Append to durable-commit latency (group-commit wait included).
# TYPE batchmaker_journal_commit_seconds summary
batchmaker_journal_commit_seconds{quantile="0.5"} 0.001
batchmaker_journal_commit_seconds{quantile="0.9"} 0.002
batchmaker_journal_commit_seconds{quantile="0.99"} 0.002
batchmaker_journal_commit_seconds_sum 0.005
batchmaker_journal_commit_seconds_count 4
# HELP batchmaker_journal_errors_total Journal write/fsync failures (nonzero means lossy mode).
# TYPE batchmaker_journal_errors_total counter
batchmaker_journal_errors_total 1
# HELP batchmaker_journal_fsyncs_total Journal fsync calls.
# TYPE batchmaker_journal_fsyncs_total counter
batchmaker_journal_fsyncs_total 4
# HELP batchmaker_journal_records_total Durably committed journal records by kind.
# TYPE batchmaker_journal_records_total counter
batchmaker_journal_records_total{kind="admit"} 10
batchmaker_journal_records_total{kind="cancel"} 1
batchmaker_journal_records_total{kind="terminal"} 9
# HELP batchmaker_journal_recovered_requests_total Journaled requests re-admitted by recovery replay.
# TYPE batchmaker_journal_recovered_requests_total counter
batchmaker_journal_recovered_requests_total 5
# HELP batchmaker_journal_replayed_records_total Intact journal records scanned during crash recovery.
# TYPE batchmaker_journal_replayed_records_total counter
batchmaker_journal_replayed_records_total 20
# HELP batchmaker_padding_waste_ratio 1 - used/capacity batch slots: fraction of batch capacity wasted.
# TYPE batchmaker_padding_waste_ratio gauge
batchmaker_padding_waste_ratio 0.5
# HELP batchmaker_queued_cells Cells admitted but not yet executed (admission backlog).
# TYPE batchmaker_queued_cells gauge
batchmaker_queued_cells 32
# HELP batchmaker_ready_queue_depth Scheduler ready-queue depth (cells ready to batch).
# TYPE batchmaker_ready_queue_depth gauge
batchmaker_ready_queue_depth{cell_type="decoder"} 3
batchmaker_ready_queue_depth{cell_type="lstm"} 12
# HELP batchmaker_request_computation_seconds First cell execution to completion (paper's computation latency).
# TYPE batchmaker_request_computation_seconds summary
batchmaker_request_computation_seconds{quantile="0.5"} 0.02
batchmaker_request_computation_seconds{quantile="0.9"} 0.04
batchmaker_request_computation_seconds{quantile="0.99"} 0.04
batchmaker_request_computation_seconds_sum 0.1
batchmaker_request_computation_seconds_count 4
# HELP batchmaker_request_queuing_seconds Admit to first cell execution (paper's queuing latency).
# TYPE batchmaker_request_queuing_seconds summary
batchmaker_request_queuing_seconds{quantile="0.5"} 0.002
batchmaker_request_queuing_seconds{quantile="0.9"} 0.004
batchmaker_request_queuing_seconds{quantile="0.99"} 0.004
batchmaker_request_queuing_seconds_sum 0.01
batchmaker_request_queuing_seconds_count 4
# HELP batchmaker_requests_total Requests by terminal outcome (admitted counts entries).
# TYPE batchmaker_requests_total counter
batchmaker_requests_total{outcome="admitted"} 10
batchmaker_requests_total{outcome="cancelled"} 1
batchmaker_requests_total{outcome="completed"} 7
batchmaker_requests_total{outcome="expired"} 1
batchmaker_requests_total{outcome="failed"} 1
batchmaker_requests_total{outcome="rejected"} 2
# HELP batchmaker_span_records_dropped Span records overwritten before retention.
# TYPE batchmaker_span_records_dropped gauge
batchmaker_span_records_dropped{ring="rp"} 2
# HELP batchmaker_span_records_written Span records written to the ring.
# TYPE batchmaker_span_records_written gauge
batchmaker_span_records_written{ring="rp"} 10
# HELP batchmaker_tasks_executed_total Executed batched tasks.
# TYPE batchmaker_tasks_executed_total counter
batchmaker_tasks_executed_total{cell_type="decoder",worker="0"} 2
batchmaker_tasks_executed_total{cell_type="lstm",worker="0"} 5
# HELP batchmaker_worker_busy_seconds_total Worker time spent gathering and executing batched tasks.
# TYPE batchmaker_worker_busy_seconds_total counter
batchmaker_worker_busy_seconds_total{worker="0"} 1.5
# HELP batchmaker_worker_queue_depth Tasks queued at the worker (scheduler's view).
# TYPE batchmaker_worker_queue_depth gauge
batchmaker_worker_queue_depth{worker="0"} 2
`

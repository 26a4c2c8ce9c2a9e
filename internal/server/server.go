// Package server implements the live BatchMaker serving system: the §4.2
// architecture (manager = request processor + scheduler; one worker per
// device) running with real tensor computation on goroutines.
//
// The manager is a monitor, not a goroutine: one lock guards its state and
// the goroutines that already exist run its code under that lock.
//
//	callers ───────┐                      ┌──▶ worker 0 ──┐
//	deadline timer ├──▶ mgr (under mu) ───┤               ├──▶ mgr (under mu)
//	                                      └──▶ worker 1 ──┘
//
// mgr owns the request table, the dependency trackers, the deadline heap and
// the core.Scheduler. A caller admits its own request and registers its
// subgraphs; a worker retires its own task, tracks dependencies, registers
// successor subgraphs and resolves finished requests — Algorithm 1's
// manager; an AfterFunc timer expires deadlines. Each entry point ends in
// one tail that dispatches batched tasks onto bounded per-worker channels
// (preserving the FIFO-per-worker execution order the subgraph pin logic
// relies on). Workers gather batched inputs into reused buffers, execute
// the cell and scatter the outputs into per-request state (in program
// order, modeling a GPU stream) outside the lock.
//
// Where internal/sim reproduces the paper's performance numbers against a
// simulated GPU, this package demonstrates the system end to end: requests
// submitted concurrently are unfolded into cell graphs, their ready cells
// are dynamically batched across requests by the core scheduler, workers
// execute the batched cells with real math, and every request's results are
// bit-identical to unbatched execution (tested) while departing as soon as
// its last cell finishes.
//
// Beyond the paper's always-healthy open-loop evaluation, the server
// carries a request-lifecycle robustness layer: admission control with load
// shedding (ErrOverloaded), per-request deadlines, caller cancellation that
// purges queued work from the scheduler, graceful drain, and fault-injected
// recovery (cell-panic containment). Every admitted request resolves exactly
// once as completed, failed, expired, or cancelled:
//
//	submitted ──shed──▶ rejected (never admitted)
//	    │
//	admitted ──▶ running ──▶ completed
//	                │────▶ cancelled   (Handle.Cancel / Submit ctx)
//	                │────▶ expired     (SubmitOpts.Deadline passed)
//	                └────▶ failed      (step error, cell panic, Stop)
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/core"
	"batchmaker/internal/journal"
	"batchmaker/internal/obsv"
	"batchmaker/internal/policy"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// RequestJournal is the durability hook the server drives: admit records
// are enqueued under the manager's lock the moment a request is admitted
// (so an admit always precedes its terminal in the journal's FIFO),
// terminal records as requests resolve, and cancel-intent records from
// Handle.Cancel. *journal.Journal implements it. All methods must be
// non-blocking — AppendAdmit and AppendTerminal run under the manager's
// lock: the journal batches and acknowledges asynchronously, and only the
// submitting caller waits on AppendAdmit's channel.
type RequestJournal interface {
	AppendAdmit(id uint64, payload []byte, deadlineNs int64) <-chan error
	AppendCancel(id uint64)
	AppendTerminal(id uint64, outcome journal.Outcome, reason string)
}

// Lifecycle errors. ErrOverloaded, ErrDraining and ErrStopped are admission
// rejections (the request never entered the system); ErrExpired, ErrCancelled
// and ErrCellPanic terminate admitted requests.
var (
	// ErrStopped is returned for requests submitted to (or still live in) a
	// stopped server.
	ErrStopped = errors.New("server: stopped")
	// ErrOverloaded sheds a request at admission when the configured queue
	// bounds are exceeded. Callers should back off and retry.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrDraining rejects new requests while a graceful drain is underway.
	ErrDraining = errors.New("server: draining")
	// ErrExpired terminates a request whose deadline passed before its last
	// cell executed.
	ErrExpired = errors.New("server: deadline exceeded")
	// ErrCancelled terminates a request cancelled by its caller.
	ErrCancelled = errors.New("server: cancelled")
	// ErrCellPanic wraps a cell panic recovered by a worker.
	ErrCellPanic = errors.New("server: cell panicked")
)

// OverloadError is the SLA feasibility rule's shed rejection. It unwraps to
// ErrOverloaded (so existing errors.Is checks keep working) and carries the
// priced wait behind the decision plus a retry-after hint clients can honor
// instead of hammering a saturated server.
type OverloadError struct {
	// EstWait is the priced queue wait the request would have seen.
	EstWait time.Duration
	// RetryAfter is EstWait − SLA (at least 1 ms): how long until the
	// backlog is likely to fit the SLA again.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: overloaded: estimated queue wait %v, retry after %v", e.EstWait, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// CellSpec registers one cell type with the server.
type CellSpec struct {
	Cell rnn.Cell
	// MaxBatch is the desired maximum batch size for this type (§4.2,
	// determined through offline benchmarking).
	MaxBatch int
	// MinBatch is the smallest worthwhile follow-up batch (Algorithm 1's
	// Bsizes.Min(); 0 means 1).
	MinBatch int
	// Priority orders types; give later-phase cells higher values.
	Priority int
}

// Config configures a Server.
type Config struct {
	Cells   []CellSpec
	Workers int
	// MaxTasksToSubmit bounds tasks handed to a worker per scheduling
	// round (default 5).
	MaxTasksToSubmit int
	// TaskObserver, when non-nil, is called by the executing worker once
	// per executed task, after the step and before the task's completion is
	// published, with the (request, node) rows the task actually ran. rows
	// is only valid during the call. It is the conformance harness's test
	// seam (span records deliberately do not carry row lists); no binary
	// sets it. Calls from different workers are concurrent.
	TaskObserver func(worker int, typeKey string, rows []core.NodeRef)
	// Obs configures the observability layer: metric registry and span
	// rings (see ObsConfig). The zero value enables it with a private
	// registry.
	Obs ObsConfig

	// MaxQueuedRequests, when positive, bounds live (admitted, unresolved)
	// requests; submissions past the bound are shed with ErrOverloaded.
	MaxQueuedRequests int
	// Policy configures the SLA feasibility rule (internal/policy): shed a
	// submission, besides the static bound above, when the cell backlog per
	// worker at the measured price per cell outlasts the SLA. The zero value
	// disables it. When enabled, shed rejections are *OverloadError values
	// (unwrapping to ErrOverloaded) carrying a retry-after hint.
	Policy policy.Config

	// Faults, when non-nil, is consulted before every task execution — the
	// chaos hook used to test recovery paths.
	Faults FaultInjector
	// SchedulerChaos forwards deliberate scheduler defects to core.Config.
	// Only the conformance harness's self-test sets it; see core.Chaos.
	SchedulerChaos core.Chaos

	// Journal, when non-nil, receives request lifecycle records: admits
	// (with SubmitOpts.JournalPayload), cancel intents, and terminal
	// outcomes. The nil path costs nothing — no records, no allocations.
	Journal RequestJournal
	// FirstRequestID, when positive, floors request-ID allocation: the
	// first assigned ID is FirstRequestID+1. Recovery sets it to the
	// journal's MaxID so replayed and fresh requests never collide.
	FirstRequestID uint64
}

// request is one admitted request's shared record. Ownership is split by
// lock: tracker, results, err and the lifecycle transitions change only
// under mgr.mu; gather and scatter touch state under stateMu and read the
// immutable fields; resolved/poisoned are the lock-free flags.
type request struct {
	id    core.RequestID
	cells int // graph.NumCells(), for backlog accounting

	// tracker is guarded by mgr.mu after admission.
	tracker *core.Tracker

	// state holds per-node rows; guarded by stateMu because subgraphs of
	// one request can be pinned to different workers.
	stateMu sync.Mutex
	state   *cellgraph.State
	// block is the pooled memory tracker and state live in, returned when
	// the request completes (see reqBlock).
	block *reqBlock

	done    chan struct{}
	results map[string]*tensor.Tensor
	err     error
	// payload is the caller's serialized request for the journal's admit
	// record; replayed marks a recovery re-admission (already journaled by
	// the pre-crash process, so admit is not re-recorded); jwait, when
	// non-nil, is the admit record's durability acknowledgement. Nothing
	// in the serving path waits for it — admission, execution, and result
	// delivery all run ahead of the group commit; Handle.AdmitDurable is
	// the explicit barrier for callers that need it.
	payload  []byte
	replayed bool
	jwait    <-chan error
	jonce    sync.Once
	jerr     error
	// deadline, when nonzero, expires the request (enforced by the
	// manager's timer and re-checked at task gather time).
	deadline time.Time

	// admittedNs is the admission timestamp (unix nanoseconds), written by
	// the manager before the request becomes worker-visible.
	admittedNs int64
	// firstExecNs is CAS'd from 0 by the first worker to execute any of the
	// request's cells; admit→firstExec→complete is the paper's
	// queuing/computation latency split.
	firstExecNs atomic.Int64

	// resolved is set by the manager when the request reaches its
	// terminal state; workers use it to skip rows of dead requests.
	resolved atomic.Bool
	// poisoned is set by a worker whose task failed, before the failure is
	// retired: successor tasks already queued behind it on the same worker
	// must not gather rows whose dependencies never completed.
	poisoned atomic.Bool
}

// dead reports whether this request's rows should be skipped at gather time.
func (r *request) dead() bool { return r.resolved.Load() || r.poisoned.Load() }

// reqBlock is what admission fills for one request besides its caller's
// graph: the execution state (rows, flags, output slab) and the tracker
// (partition, release flags, specs). Blocks are reused, so steady-state
// admission allocates almost nothing of its own.
//
// A caller's goroutine takes a block in SubmitAsyncOpts. mgr.complete gives
// it back only when the request completes, after retiring the task that
// finished it: every task that carried the request's rows has then run and
// retired, so no worker or scheduler record still refers to the block, and
// Results has already copied what the caller gets. A cancelled, expired,
// failed or stopped request's block is left to the collector, because a
// task holding its rows may still be queued or running.
type reqBlock struct {
	state   cellgraph.State
	tracker core.Tracker
	// widths holds the row widths of each of the graph's cell types, for
	// PreallocOutputs.
	widths [][]int
}

// blockList is a server's free list of request blocks: a LIFO under a leaf
// lock, not a sync.Pool. A worker gives blocks back (under mgr.mu) and a
// caller takes them on another P, and a sync.Pool keeps each Put in the
// putting P's private slot, out of that caller's reach. Like the
// scheduler's free lists it never shrinks; it holds at most the server's
// peak number of requests in flight.
type blockList struct {
	mu   sync.Mutex
	free []*reqBlock
}

func (l *blockList) get() *reqBlock {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(reqBlock)
	}
	b := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return b
}

func (l *blockList) put(b *reqBlock) {
	l.mu.Lock()
	l.free = append(l.free, b)
	l.mu.Unlock()
}

// release detaches a completed request's block for reuse; the caller has
// retired the request's last task.
func (r *request) release() *reqBlock {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	b := r.block
	r.block, r.state, r.tracker = nil, nil, nil
	return b
}

// durableAdmit blocks until the journal acknowledged this request's admit
// record and latches the outcome; repeated and concurrent calls are safe.
// Journal-less requests return nil immediately. The journal always resolves
// the ack — commit, degradation, queue overflow, Close, and Kill each send
// exactly one value — so this never blocks indefinitely.
func (r *request) durableAdmit() error {
	r.jonce.Do(func() {
		if r.jwait != nil {
			r.jerr = <-r.jwait
		}
	})
	return r.jerr
}

// cellType is one registered cell type. Its index in Server.types is its
// core.TypeID: the scheduler numbers Config.Types, and ServingMetrics its
// per-type cells, in the same order.
type cellType struct {
	cell     rnn.Cell
	key      string
	maxBatch int64
	// widths are the output row widths, in OutputNames order. Admission
	// carves per-request output rows by them; workers size step outputs.
	widths []int
}

// Server is a live cellular-batching inference server.
type Server struct {
	cfg    Config
	types  []cellType // indexed by core.TypeID
	faults FaultInjector
	// journal is the durability hook (nil: journaling off). Immutable
	// after New; only mgr and Handle.Cancel touch it — never the worker
	// hot path.
	journal RequestJournal
	// baseAllocs is the process-wide heap-allocation count when the server
	// started; Stats divides the delta by tasks run. Immutable after New.
	baseAllocs uint64

	// m is the manager monitor; taskChans are the per-worker task queues it
	// dispatches onto.
	m         *mgr
	taskChans []chan *core.Task
	// blocks holds the request blocks of completed requests for reuse.
	blocks blockList

	// stopdCh is closed the moment stop processing begins; submissions
	// check it to fail fast without taking the manager's lock.
	stopdCh chan struct{}
	// drained is closed when a drain (or stop) leaves no live requests.
	drained chan struct{}

	nextID atomic.Int64
	wg     sync.WaitGroup

	// obs is the observability bridge: the serving path's only bookkeeping.
	// draining mirrors the manager's drain state for Health.
	obs      *serverObs
	draining atomic.Bool
	// policy is the SLA feasibility rule (nil when Config.Policy is off).
	// Touched only under mgr.mu.
	policy *policy.Controller

	// live is the worker-visible request lookup. mgr is the only writer
	// (under liveMu); workers read under RLock.
	liveMu sync.RWMutex
	live   map[core.RequestID]*request

	// Scheduler mirrors, written under mgr.mu so Stats and SchedulerClean
	// work without the lock, during operation and after shutdown.
	schedInflight  atomic.Int64 // core.Scheduler in-flight tasks
	schedLive      atomic.Int64 // core.Scheduler live subgraphs
	dispatchRounds atomic.Int64
}

// Span records stamp the worker index into a byte, and the batch size and
// the type id + 1 into 16 bits; New rejects configurations that would not
// fit.
const (
	maxWorkers    = 256
	maxBatchLimit = 65535
	maxTypes      = 65535
)

// New builds and starts a server. Call Stop (or Drain) to shut it down.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("server: Workers must be positive")
	}
	if cfg.Workers > maxWorkers {
		return nil, fmt.Errorf("server: Workers %d too large (max %d)", cfg.Workers, maxWorkers)
	}
	if len(cfg.Cells) == 0 || len(cfg.Cells) > maxTypes {
		return nil, fmt.Errorf("server: %d cell types registered, want 1 to %d", len(cfg.Cells), maxTypes)
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	types := make([]core.TypeConfig, 0, len(cfg.Cells))
	cells := make([]cellType, 0, len(cfg.Cells))
	for _, cs := range cfg.Cells {
		if cs.Cell == nil {
			return nil, fmt.Errorf("server: nil cell in config")
		}
		if cs.MaxBatch > maxBatchLimit {
			return nil, fmt.Errorf("server: MaxBatch %d of cell %q too large (max %d)",
				cs.MaxBatch, cs.Cell.Name(), maxBatchLimit)
		}
		key := cs.Cell.TypeKey()
		if slices.ContainsFunc(cells, func(ct cellType) bool { return ct.key == key }) {
			return nil, fmt.Errorf("server: duplicate cell type %q", key)
		}
		widths, err := rnn.OutputWidthsOf(cs.Cell)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		cells = append(cells, cellType{cell: cs.Cell, key: key, maxBatch: int64(cs.MaxBatch), widths: widths})
		types = append(types, core.TypeConfig{
			Key:      key,
			MaxBatch: cs.MaxBatch,
			MinBatch: cs.MinBatch,
			Priority: cs.Priority,
		})
	}
	sched, err := core.NewScheduler(core.Config{
		Types:            types,
		MaxTasksToSubmit: cfg.MaxTasksToSubmit,
		Chaos:            cfg.SchedulerChaos,
	})
	if err != nil {
		return nil, err
	}
	// mts is both the scheduling round and each worker channel's depth. The
	// manager only schedules for a worker whose channel is empty, so dispatch
	// never blocks — and it forms a worker's next tasks only then, keeping
	// batches open until the last moment (late batching is what lets
	// concurrent requests' cells coalesce).
	mts := cfg.MaxTasksToSubmit
	if mts <= 0 {
		mts = 5
	}
	s := &Server{
		cfg:        cfg,
		types:      cells,
		faults:     cfg.Faults,
		journal:    cfg.Journal,
		baseAllocs: heapAllocObjects(),
		taskChans:  make([]chan *core.Task, cfg.Workers),
		stopdCh:    make(chan struct{}),
		drained:    make(chan struct{}),
		live:       make(map[core.RequestID]*request),
		obs:        newServerObs(cfg.Obs, cells, cfg.Workers),
	}
	if cfg.FirstRequestID > 0 {
		s.nextID.Store(int64(cfg.FirstRequestID))
	}
	if cfg.Policy.Enabled() {
		bounds := make([]policy.TypeBounds, 0, len(types))
		for _, tc := range types {
			bounds = append(bounds, policy.TypeBounds{Key: tc.Key, Max: tc.MaxBatch})
		}
		s.obs.pm = obsv.NewPolicyMetrics(s.obs.sm.Registry())
		s.policy = policy.New(cfg.Policy, bounds, s.obs.pm)
	}
	for w := range s.taskChans {
		s.taskChans[w] = make(chan *core.Task, mts)
	}
	s.m = newMgr(s, sched)
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.workerLoop(w, s.taskChans[w])
	}
	return s, nil
}

// Stop shuts the server down fail-fast: in-flight requests are failed with
// ErrStopped and their queued work is purged from the scheduler. Stop blocks
// until every worker exits; tasks already mid-execution are retired against
// the scheduler (discarding their outputs) so its bookkeeping drains clean.
func (s *Server) Stop() {
	s.m.mu.Lock()
	s.m.stop()
	s.m.unlock()
	s.wg.Wait()
}

// Drain gracefully shuts the server down: admission stops immediately
// (submissions fail with ErrDraining), in-flight requests run to
// resolution, then the pipeline is stopped. The wait is bounded by ctx — on
// expiry Drain falls back to Stop's fail-fast semantics, failing whatever
// is still live, and returns the context error.
func (s *Server) Drain(ctx context.Context) error {
	s.m.mu.Lock()
	s.m.drain()
	s.m.unlock()
	var ctxErr error
	select {
	case <-s.drained:
	case <-s.stopdCh:
	case <-ctx.Done():
		ctxErr = ctx.Err()
	}
	s.Stop()
	return ctxErr
}

// Handle tracks one asynchronously submitted request.
type Handle struct {
	s   *Server
	req *request
}

// Done is closed when the request resolves (results, error, cancellation,
// expiry, or server stop).
func (h *Handle) Done() <-chan struct{} { return h.req.done }

// ID returns the request's server-assigned ID — the key under which its
// lifecycle appears in span records and as the flow id in /debug/trace.
func (h *Handle) ID() core.RequestID { return h.req.id }

// Result returns the request's outputs after Done is closed. Calling it
// earlier returns an error. Delivery is optimistic with respect to the
// journal: it does not wait for the admit record's durability ack (see
// AdmitDurable for the explicit barrier), so journaling costs the serving
// path nothing beyond the group commit's own background work.
func (h *Handle) Result() (map[string]*tensor.Tensor, error) {
	select {
	case <-h.req.done:
		return h.req.results, h.req.err
	default:
		return nil, errors.New("server: request still in flight")
	}
}

// AdmitDurable blocks until the journal acknowledged this request's admit
// record: nil means the admission is durable per the journal's sync policy;
// otherwise the ack's reason (degraded to lossy mode, queue overflow,
// closed). Requests on a journal-less server return nil immediately.
//
// Results are otherwise delivered without waiting for this ack: execution
// is deterministic and replay is at-least-once, so a crash in the ack
// window re-executes the request to bit-identical outputs rather than
// losing it. Callers that need admission durability before acting on a
// result take the barrier explicitly here.
func (h *Handle) AdmitDurable() error { return h.req.durableAdmit() }

// Cancel terminates the request if it has not resolved yet: its queued
// nodes are purged from the scheduler's ready queues (freeing their batch
// slots), nodes already inside in-flight batched tasks are skipped at
// execution, and the request resolves with ErrCancelled. It reports whether
// this call cancelled the request (false if it had already resolved).
func (h *Handle) Cancel() bool {
	// Journal the cancel intent before acting on it: if the process dies
	// between this record and the terminal record, recovery resolves the
	// request as cancelled instead of re-executing work the caller had
	// already abandoned.
	if h.s.journal != nil {
		h.s.journal.AppendCancel(uint64(h.req.id))
	}
	return h.s.terminate(h.req, ErrCancelled)
}

// terminate resolves a live request early with ErrCancelled or ErrExpired.
func (s *Server) terminate(r *request, cause error) bool {
	s.m.mu.Lock()
	ok := s.m.terminate(r, cause)
	s.m.unlock()
	return ok
}

// SubmitOpts carries per-request lifecycle options.
type SubmitOpts struct {
	// Deadline, when nonzero, is the request's SLA: once it passes, the
	// request stops consuming batch slots (its queued nodes are purged
	// before the next task forms) and resolves with ErrExpired.
	Deadline time.Time

	// JournalPayload is the caller's full serialized request, written into
	// the journal's admit record so recovery can reconstruct and replay the
	// request. Ignored when the server has no journal.
	JournalPayload []byte
	// ReplayID, when nonzero, re-admits a journaled request under its
	// original ID instead of allocating a fresh one. The admit record is
	// not re-journaled (the pre-crash process already wrote it); the
	// request's eventual terminal record is. Recovery-replay only.
	ReplayID core.RequestID
}

// SubmitAsync registers a request's cell graph for execution and returns
// immediately with a handle. The graph must be valid; nodes must use cell
// types registered at construction. Enqueueing many requests before waiting
// lets them join each other's batches even from a single caller goroutine.
func (s *Server) SubmitAsync(g *cellgraph.Graph) (*Handle, error) {
	return s.SubmitAsyncOpts(g, SubmitOpts{})
}

// SubmitAsyncOpts is SubmitAsync with lifecycle options. Graph validation
// and state construction run on the caller's goroutine outside any lock;
// only the admission decision itself, and the dispatch it may enable, run
// under the manager's lock.
func (s *Server) SubmitAsyncOpts(g *cellgraph.Graph, opts SubmitOpts) (*Handle, error) {
	select {
	case <-s.stopdCh:
		return nil, ErrStopped
	default:
	}
	if !opts.Deadline.IsZero() && !time.Now().Before(opts.Deadline) {
		// Dead on arrival: shed rather than admit work that cannot meet its
		// SLA. Checked here, on the caller's goroutine, so the shed/expire
		// classification does not depend on admission queueing delay: a
		// deadline that passes after this point is an admitted request that
		// expires normally.
		s.obs.reject(false)
		return nil, fmt.Errorf("%w: deadline passed before admission", ErrExpired)
	}
	// Resetting the state validates the graph — the admission's one
	// validation, which the tracker below shares — so a nil cell is reported
	// there, not here.
	b := s.blocks.get()
	if err := b.state.Reset(g); err != nil {
		s.blocks.put(b)
		return nil, err
	}
	// Check registration and look up row widths once per distinct cell type
	// of the request (a server has a handful: a scan beats hashing the key),
	// then carve its output rows here, on the caller's goroutine, so the
	// worker scatter writes in place instead of allocating (the arena
	// counterpart on the gather/step side lives in the worker).
	b.widths = b.widths[:0]
	for _, key := range g.TypeKeys() {
		t := slices.IndexFunc(s.types, func(ct cellType) bool { return ct.key == key })
		if t < 0 {
			s.blocks.put(b)
			return nil, fmt.Errorf("server: cell type %q not registered", key)
		}
		b.widths = append(b.widths, s.types[t].widths)
	}
	b.state.PreallocOutputs(b.widths)
	var id core.RequestID
	if opts.ReplayID != 0 {
		// Recovery replay keeps the original ID and floors the allocator
		// above it, so fresh post-recovery submissions never collide.
		id = opts.ReplayID
		for {
			cur := s.nextID.Load()
			if int64(id) <= cur || s.nextID.CompareAndSwap(cur, int64(id)) {
				break
			}
		}
	} else {
		id = core.RequestID(s.nextID.Add(1))
	}
	b.tracker.Reset(id, &b.state)
	req := &request{
		id:       id,
		cells:    g.NumCells(),
		tracker:  &b.tracker,
		state:    &b.state,
		block:    b,
		done:     make(chan struct{}),
		deadline: opts.Deadline,
		payload:  opts.JournalPayload,
		replayed: opts.ReplayID != 0,
	}
	s.m.mu.Lock()
	err := s.m.admit(req, b.tracker.InitialSubgraphs())
	s.m.unlock()
	if err != nil {
		// A refused admission left nothing registered: admit rolls back
		// what it added before returning.
		s.blocks.put(b)
		return nil, err
	}
	// The admit record's durability ack is deliberately NOT awaited here —
	// or anywhere on the serving path: the group commit runs entirely in
	// the background, and Handle.AdmitDurable is the explicit barrier for
	// callers that need admission durability before acting on the request.
	return &Handle{s: s, req: req}, nil
}

// Submit enqueues a request's cell graph and blocks until its results are
// ready, the context is cancelled, or the server stops.
func (s *Server) Submit(ctx context.Context, g *cellgraph.Graph) (map[string]*tensor.Tensor, error) {
	return s.SubmitOpts(ctx, g, SubmitOpts{})
}

// SubmitOpts is Submit with lifecycle options. Context cancellation
// propagates into the scheduler: the request's queued nodes are purged so
// they stop occupying batch slots, and the request resolves with
// ErrCancelled (ErrExpired for a deadline-shaped cause).
func (s *Server) SubmitOpts(ctx context.Context, g *cellgraph.Graph, opts SubmitOpts) (map[string]*tensor.Tensor, error) {
	// A context that is already dead never admits work: without this check
	// the pipeline can finish a small request before the select below
	// observes ctx.Done, making the returned error racy.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, err := s.SubmitAsyncOpts(g, opts)
	if err != nil {
		return nil, err
	}
	select {
	case <-h.req.done:
		return h.req.results, h.req.err
	case <-ctx.Done():
		cause := ctx.Err()
		if errors.Is(cause, context.DeadlineExceeded) {
			s.terminate(h.req, fmt.Errorf("%w: %v", ErrExpired, cause))
		} else {
			s.terminate(h.req, fmt.Errorf("%w: %v", ErrCancelled, cause))
		}
		return nil, cause
	}
}

// setAdmitFault installs a hook consulted before every AddSubgraph — the
// test seam for the partial-admission rollback path. It returns once the
// hook is in place and the scheduler's gauges are mirrored.
func (s *Server) setAdmitFault(f func(core.SubgraphSpec) error) {
	s.m.mu.Lock()
	s.m.admitFault = f
	s.m.unlock()
}

// WorkerStats describes one worker's slice of the pipeline.
type WorkerStats struct {
	// TasksRun counts batched tasks this worker executed.
	TasksRun int
	// QueueDepth is the worker's current task-channel backlog (dispatched,
	// not yet completed).
	QueueDepth int
}

// Stats is a read-time view of the server's obsv metric cells — the same
// cells /metrics exposes — plus the manager's scheduler mirrors. Each field is
// read atomically; the view as a whole is not one atomic snapshot, so sums
// across fields are exact only once the pipeline is idle.
type Stats struct {
	TasksRun int
	CellsRun int
	// BatchSizes is the batch-occupancy histogram of the registry
	// (batchmaker_batch_occupancy): key = inclusive bucket upper bound from
	// obsv.BatchOccupancyBuckets, value = tasks whose live-row count fell in
	// that bucket; tasks above the last bound are keyed math.MaxInt. Empty
	// buckets are omitted.
	BatchSizes map[int]int
	// LiveRequests counts admitted, unresolved requests.
	LiveRequests int
	// QueuedCells counts admitted, not-yet-executed cell nodes (the
	// backlog the SLA feasibility rule prices).
	QueuedCells int
	// Outcomes breaks down how requests entered and left the system.
	Outcomes Outcomes
	// Quarantined counts recovered panics per cell type (types that never
	// panicked are omitted) — a persistently growing entry points at a
	// broken kernel.
	Quarantined map[string]int
	// Workers breaks execution down per pipeline worker.
	Workers []WorkerStats
	// DispatchRounds counts dispatch rounds that produced tasks.
	DispatchRounds int
	// DispatchP50 and DispatchP99 are recent dispatch latencies (Schedule
	// call plus hand-off to the worker channel).
	DispatchP50 time.Duration
	DispatchP99 time.Duration
	// NsPerCell is the mean worker time (gather + execute) per cell row —
	// the per-row cost of the batched hot path.
	NsPerCell time.Duration
	// ProcessAllocsPerTask is the process-wide heap-allocation count since
	// the server started, divided by tasks run. It includes admission and
	// caller-side allocations, so it is an upper bound on what the worker
	// loop itself allocates; a steady-state value near the per-request
	// admission cost means the execution path is allocation-free.
	ProcessAllocsPerTask float64
}

// Stats computes the view from the metric cells at call time.
func (s *Server) Stats() Stats {
	sm := s.obs.sm
	st := Stats{
		BatchSizes:   make(map[int]int),
		LiveRequests: int(sm.Inflight.Value()),
		QueuedCells:  int(sm.QueuedCells.Value()),
		Outcomes: Outcomes{
			Admitted:  int(sm.Admitted.Value()),
			Completed: int(sm.Completed.Value()),
			Failed:    int(sm.Failed.Value()),
			Rejected:  int(sm.Rejected.Value()),
			Expired:   int(sm.Expired.Value()),
			Cancelled: int(sm.Cancelled.Value()),
		},
		Quarantined:    make(map[string]int),
		Workers:        make([]WorkerStats, len(sm.Workers)),
		DispatchRounds: int(s.dispatchRounds.Load()),
		DispatchP50:    sm.Dispatch.Percentile(50),
		DispatchP99:    sm.Dispatch.Percentile(99),
	}
	bounds, cum := sm.BatchOccupancy.Buckets()
	prev := int64(0)
	for i, ub := range bounds {
		if n := cum[i] - prev; n > 0 {
			st.BatchSizes[int(ub)] = int(n)
		}
		prev = cum[i]
	}
	if n := sm.BatchOccupancy.Count() - prev; n > 0 {
		st.BatchSizes[math.MaxInt] = int(n)
	}
	for t, tm := range sm.Types {
		if n := int(tm.Panics.Value()); n > 0 {
			st.Quarantined[s.types[t].key] = n
			st.Outcomes.RecoveredPanics += n
		}
	}
	var busyNs int64
	for w, wm := range sm.Workers {
		ws := WorkerStats{QueueDepth: int(wm.Depth.Value())}
		cells := 0
		for _, e := range sm.Exec[w] {
			ws.TasksRun += int(e.Tasks.Value())
			cells += int(e.Cells.Value())
		}
		st.Workers[w] = ws
		st.TasksRun += ws.TasksRun
		st.CellsRun += cells
		busyNs += wm.Busy.Value()
	}
	if st.CellsRun > 0 {
		st.NsPerCell = time.Duration(busyNs / int64(st.CellsRun))
	}
	if st.TasksRun > 0 {
		st.ProcessAllocsPerTask = float64(heapAllocObjects()-s.baseAllocs) / float64(st.TasksRun)
	}
	return st
}

// heapAllocObjects reads the cumulative process-wide heap allocation count.
func heapAllocObjects() uint64 {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() == rtmetrics.KindUint64 {
		return sample[0].Value.Uint64()
	}
	return 0
}

// schedulerGauges returns the manager-mirrored core.Scheduler gauges
// (in-flight tasks, live subgraphs, total ready nodes — the last as the sum
// of the per-type ready-queue gauges). The mirror is updated on the way out
// of every entry into the manager, so it is eventually consistent during
// operation and exact once the pipeline is idle.
func (s *Server) schedulerGauges() (inflight, liveSubgraphs, ready int) {
	for _, tm := range s.obs.sm.Types {
		ready += int(tm.Ready.Value())
	}
	return int(s.schedInflight.Load()), int(s.schedLive.Load()), ready
}

// SchedulerClean reports whether the scheduler's queues and bookkeeping
// drained to empty — the invariant shutdown must restore. Exposed for
// tests and shutdown assertions.
func (s *Server) SchedulerClean() bool {
	inflight, live, ready := s.schedulerGauges()
	return inflight == 0 && live == 0 && ready == 0
}

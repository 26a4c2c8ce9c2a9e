// Package core implements cellular batching — the paper's primary
// contribution. It contains the batching and scheduling algorithm
// (Algorithm 1, §4.3) that dynamically assembles batched tasks out of ready
// cell nodes from any mix of requests, lets newly arrived requests join the
// ongoing execution of existing ones, and returns each request as soon as
// its last cell finishes.
//
// The Scheduler is deliberately time-free and engine-agnostic: the
// discrete-event simulator (internal/sim) and the live serving system
// (internal/server) both drive the same scheduling logic, calling
// Schedule(worker) whenever a worker has capacity and TaskCompleted when the
// worker reports a finished task.
//
// Concurrency: the Scheduler is NOT internally synchronized. The simulator
// is single-threaded; the live server serializes access with its own mutex.
package core

import (
	"fmt"
	"slices"
	"sort"

	"batchmaker/internal/cellgraph"
)

// RequestID identifies a request across the serving system.
type RequestID int64

// WorkerID identifies one GPU worker.
type WorkerID int

// NoWorker is the "unpinned" sentinel.
const NoWorker WorkerID = -1

// SubgraphID identifies a subgraph instance registered with the scheduler.
type SubgraphID int64

// TaskID identifies a batched task.
type TaskID int64

// NodeRef names one cell node of one request.
type NodeRef struct {
	Req  RequestID
	Node cellgraph.NodeID
}

// TypeID is a cell type's position in Config.Types: every per-type table of
// the engine indexes by it.
type TypeID int32

// TypeConfig configures one cell type for scheduling.
type TypeConfig struct {
	// Key is the cell type identity (rnn.Cell.TypeKey()).
	Key string
	// Priority orders cell types: higher runs first. The paper gives types
	// that occur later in the computation graph higher priority (decoders
	// over encoders, internal cells over leaf cells) for better latency.
	Priority int
	// MaxBatch is the desired maximum batch size for this type, determined
	// through offline benchmarking (e.g. 512 for LSTM/encoder cells, 256
	// for decoder cells on the paper's V100).
	MaxBatch int
	// MinBatch is the smallest batch worth submitting as a non-first task
	// of a scheduling round (Bsizes.Min() in Algorithm 1). Zero means 1.
	MinBatch int
	// Weight estimates the type's relative load (e.g. kernel time per row)
	// for the initial device pin assignment. Zero means 1.
	Weight float64
}

// Config configures the scheduler.
type Config struct {
	// Types lists every cell type that may appear. Unknown types are
	// rejected by AddSubgraph.
	Types []TypeConfig
	// MaxTasksToSubmit bounds how many tasks one Schedule call may hand to
	// a worker (default 5, §4.3): small enough that other cell types get a
	// chance and new requests can join, large enough to keep the GPU busy.
	MaxTasksToSubmit int
	// Devices is the number of device pools workers are grouped into
	// (default 1). Cell-type weights are pinned across devices at
	// construction (LPT by Weight) and batches prefer workers on the
	// pinned device (§5).
	Devices int
	// RebalanceSkew triggers a pin move when the deepest device's ready
	// depth exceeds this multiple of the shallowest (+1). Default 2.
	RebalanceSkew float64
	// Chaos injects deliberate scheduler defects. Production configs leave
	// it zero; only the conformance harness's self-test sets it.
	Chaos Chaos
}

// Chaos enumerates deliberate, narrowly scoped scheduler defects. The
// conformance harness (internal/conformance) enables one at a time to prove
// its invariant checker detects real scheduler bugs, not just synthetic
// assertion failures. The zero value injects nothing.
type Chaos struct {
	// DropCancelPurge makes CancelRequest skip purging idle subgraphs from
	// the bookkeeping: their ready nodes are removed but subgraphs with no
	// in-flight task are left registered in the live set and the type
	// queue forever. A cancelled request then leaks scheduler state — the
	// class of bug the conformance conservation invariant
	// (LiveSubgraphs == 0 after drain) exists to catch.
	DropCancelPurge bool
}

// SubgraphSpec describes a subgraph being handed to the scheduler: a set of
// same-type nodes of one request whose external dependencies are all
// satisfied (§4.3). Deps lists intra-subgraph dependencies only. The
// scheduler keeps Nodes and reads Deps without copying either, so the caller
// must not modify them afterwards (the tracker passes its partition's own
// slices).
type SubgraphSpec struct {
	Req     RequestID
	TypeKey string
	// Nodes are the members in ascending ID order (for chains, sequence
	// order), which is the order they are batched in.
	Nodes []cellgraph.NodeID
	// Deps is indexed by position in Nodes: Deps[i] lists the positions of
	// the members Nodes[i] depends on. It may be shorter than Nodes (or
	// nil); members without an entry, or with an empty one, are ready
	// immediately.
	Deps [][]int32
	// Deadline, when nonzero, is the owning request's SLA expiry in
	// nanoseconds (wall or virtual — the scheduler only compares). Within a
	// cell type, subgraphs are batched earliest-deadline-first; deadline-less
	// subgraphs follow in admission order (see EDFQueue).
	Deadline int64
}

// Task is a batched cell invocation assembled by the scheduler: up to
// MaxBatch ready nodes of one cell type, possibly drawn from many requests
// and many subgraphs, destined for one worker.
//
// The scheduler owns every Task it returns and reuses it, arrays and all,
// for a later one: a Task is invalid once TaskCompleted(t.ID) returns.
// TaskCompleted clears it (Nodes nil, Worker NoWorker), so a late read
// finds nothing or indexes out of range instead of another task's rows.
type Task struct {
	ID TaskID
	// Type indexes every per-type table; TypeKey is the same type's name,
	// for the engine's edges (labels, fault injection, observers, errors).
	Type    TypeID
	TypeKey string
	Worker  WorkerID
	Nodes   []NodeRef
	// Device is the device pool the assigned worker belongs to. HomeDevice
	// is the type's primary weight pin; when Remote is true the worker's
	// device does not hold the weights and the engine charges a weight
	// fetch from HomeDevice (work-conserving steal).
	Device     DeviceID
	HomeDevice DeviceID
	Remote     bool
	// Migrations counts requests in this batch whose previous task ran on
	// a different device; MigratedFrom lists their source devices (one
	// entry per migrated request, only appended on multi-device
	// schedulers — single-device runs never allocate it).
	Migrations   int
	MigratedFrom []DeviceID
	// DispatchedAt (unix nanoseconds) and QueueDepth (the worker's
	// outstanding-task count at dispatch) are observability fields stamped
	// by the serving engine just before the task is sent to its worker.
	// The scheduler itself never reads them.
	DispatchedAt int64
	QueueDepth   int32
	// subgraphs holds the distinct subgraphs contributing nodes, for
	// pin/unpin bookkeeping at completion time.
	subgraphs []*subgraph
	// nodesBuf keeps Nodes' array while the task waits for reuse.
	nodesBuf []NodeRef
}

// BatchSize returns the number of nodes batched in the task.
func (t *Task) BatchSize() int { return len(t.Nodes) }

type subgraph struct {
	id  SubgraphID
	req RequestID
	typ TypeID

	// nodes is the spec's member list; everything below names a member by
	// its position in it.
	nodes []cellgraph.NodeID
	// ready holds schedule-ready, not-yet-issued members in ascending
	// order (for chains this is sequence order).
	ready []int32
	// pendingDeps counts unsubmitted intra-subgraph dependencies per member;
	// the members reading member p are dependents[depStart[p]:depStart[p+1]].
	// All three are nil for a subgraph without internal edges, and carved
	// from depBuf otherwise. A recycled record keeps depBuf and ready's array.
	pendingDeps, depStart, dependents []int32
	depBuf                            []int32

	unissued int // nodes not yet placed into any task
	inflight int // tasks containing this subgraph still running
	pinned   WorkerID
	// deadline mirrors SubgraphSpec.Deadline (0 = none) for EDF placement.
	deadline int64

	// pendingTake is a scratch field written by formBatchedTask and
	// consumed by updateNodesDependency for the same candidate task. A
	// stale value (from a candidate that was rejected for being under
	// MinBatch) is always overwritten before its next use.
	pendingTake int
}

type cellType struct {
	id  TypeID
	cfg TypeConfig
	// queue of live subgraphs in earliest-deadline-first order, FIFO among
	// equal or absent deadlines — so a deadline-free workload batches in
	// exactly the paper's admission order, while mixed traffic serves the
	// request closest to its SLA first.
	queue EDFQueue[*subgraph]
	// readyNodes is the cached count of schedule-ready nodes across the
	// queue, maintained incrementally.
	readyNodes int
	// runningTasks counts in-flight tasks of this type.
	runningTasks int
	// pins is the sorted set of devices holding this type's weights.
	pins []DeviceID
	// purge marks a type whose queue CancelRequest must filter.
	purge bool
}

// Scheduler implements Algorithm 1.
type Scheduler struct {
	cfg        Config
	types      []cellType // indexed by TypeID
	keys       []string   // keys[t] = types[t].cfg.Key, for AddSubgraph
	typeOrder  []TypeID   // ascending key: pickType's tie-break order
	nextSub    SubgraphID
	nextTask   TaskID
	live       int // registered, not yet retired subgraphs
	byReq      map[RequestID][]*subgraph
	inflight   map[TaskID]*Task
	totalReady int

	// Device dimension (§5). lastDev tracks, per live request, the device
	// its most recent task ran on, to detect cross-device state movement;
	// it is nil on single-device schedulers (no tracking overhead).
	devices          int
	workerDev        map[WorkerID]DeviceID
	lastDev          map[RequestID]DeviceID
	devScratch       []float64
	pinMoves         int
	remoteTasks      int
	migratedRequests int

	// Retired records and scratch, reused so that steady-state scheduling
	// allocates nothing. Nothing else references a record on a free list:
	// a task goes back in TaskCompleted, a subgraph when it has left both
	// its type queue and byReq (keepLive), a byReq list with its request.
	freeTasks []*Task
	freeSubs  []*subgraph
	freeLists [][]*subgraph
	scheduled []*Task // Schedule's result
	fresh     []int32 // updateNodesDependency's released members
	keepLive  func(*subgraph) bool
}

// NewScheduler validates cfg and builds a scheduler.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if cfg.MaxTasksToSubmit <= 0 {
		cfg.MaxTasksToSubmit = 5
	}
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	if cfg.RebalanceSkew <= 0 {
		cfg.RebalanceSkew = 2
	}
	if len(cfg.Types) == 0 {
		return nil, fmt.Errorf("core: no cell types configured")
	}
	s := &Scheduler{
		cfg:      cfg,
		types:    make([]cellType, 0, len(cfg.Types)),
		byReq:    make(map[RequestID][]*subgraph),
		inflight: make(map[TaskID]*Task),
		devices:  cfg.Devices,
	}
	s.keepLive = s.keepOrRecycle
	for _, tc := range cfg.Types {
		if tc.Key == "" {
			return nil, fmt.Errorf("core: cell type with empty key")
		}
		if tc.MaxBatch <= 0 {
			return nil, fmt.Errorf("core: cell type %q must have positive MaxBatch", tc.Key)
		}
		if tc.MinBatch <= 0 {
			tc.MinBatch = 1
		}
		if tc.MinBatch > tc.MaxBatch {
			return nil, fmt.Errorf("core: cell type %q MinBatch %d > MaxBatch %d", tc.Key, tc.MinBatch, tc.MaxBatch)
		}
		if slices.Contains(s.keys, tc.Key) {
			return nil, fmt.Errorf("core: duplicate cell type %q", tc.Key)
		}
		id := TypeID(len(s.types))
		s.types = append(s.types, cellType{id: id, cfg: tc})
		s.keys = append(s.keys, tc.Key)
		s.typeOrder = append(s.typeOrder, id)
	}
	sort.Slice(s.typeOrder, func(i, j int) bool { return s.keys[s.typeOrder[i]] < s.keys[s.typeOrder[j]] })
	s.assignPins()
	if s.devices > 1 {
		s.lastDev = make(map[RequestID]DeviceID)
	}
	return s, nil
}

// AddSubgraph registers a subgraph whose external dependencies are satisfied,
// making its dependency-free nodes immediately available for batching. It
// returns the subgraph's ID.
func (s *Scheduler) AddSubgraph(spec SubgraphSpec) (SubgraphID, error) {
	// A scheduler has a handful of types: a scan beats hashing the key.
	typ := slices.Index(s.keys, spec.TypeKey)
	if typ < 0 {
		return 0, fmt.Errorf("core: unknown cell type %q", spec.TypeKey)
	}
	ct := &s.types[typ]
	if len(spec.Nodes) == 0 {
		return 0, fmt.Errorf("core: empty subgraph for request %d", spec.Req)
	}
	k := len(spec.Nodes)
	if len(spec.Deps) > k {
		return 0, fmt.Errorf("core: dep entry for position %d outside the %d-node subgraph", k, k)
	}
	edges, nready := 0, k
	for i, n := range spec.Nodes {
		if i > 0 && n <= spec.Nodes[i-1] {
			return 0, fmt.Errorf("core: subgraph nodes must be in ascending order, got %d after %d", n, spec.Nodes[i-1])
		}
		if i >= len(spec.Deps) || len(spec.Deps[i]) == 0 {
			continue
		}
		for _, d := range spec.Deps[i] {
			if d < 0 || int(d) >= k {
				return 0, fmt.Errorf("core: node %d lists dep position %d outside the %d-node subgraph", n, d, k)
			}
		}
		edges += len(spec.Deps[i])
		nready--
	}
	if nready == 0 {
		return 0, fmt.Errorf("core: subgraph for request %d has no initially ready node (internal cycle?)", spec.Req)
	}
	sg := reuse(&s.freeSubs)
	*sg = subgraph{
		id:       s.nextSub,
		req:      spec.Req,
		typ:      TypeID(typ),
		nodes:    spec.Nodes,
		ready:    sg.ready[:0],
		depBuf:   sg.depBuf,
		unissued: k,
		pinned:   NoWorker,
		deadline: spec.Deadline,
	}
	if edges > 0 {
		// Invert Deps into the dependents lists by counting sort; next is
		// the sort's per-member write cursor, dead once AddSubgraph returns.
		n := 3*k + 1 + edges
		sg.depBuf = slices.Grow(sg.depBuf[:0], n)[:n]
		clear(sg.depBuf)
		buf := sg.depBuf
		sg.pendingDeps, sg.depStart, buf = buf[:k], buf[k:2*k+1], buf[2*k+1:]
		sg.dependents, buf = buf[:edges], buf[edges:]
		next := buf
		for i, deps := range spec.Deps {
			sg.pendingDeps[i] = int32(len(deps))
			for _, d := range deps {
				sg.depStart[d+1]++
			}
		}
		for p := 0; p < k; p++ {
			sg.depStart[p+1] += sg.depStart[p]
		}
		for i, deps := range spec.Deps {
			for _, d := range deps {
				sg.dependents[sg.depStart[d]+next[d]] = int32(i)
				next[d]++
			}
		}
	}
	// Ready set: members with no intra-subgraph deps, ascending order.
	for p := 0; p < k; p++ {
		if sg.pendingDeps == nil || sg.pendingDeps[p] == 0 {
			sg.ready = append(sg.ready, int32(p))
		}
	}
	s.nextSub++
	// EDF placement: subgraph IDs are monotone, so deadline-less specs (and
	// deadline ties) keep admission order.
	ct.queue.Push(sg, sg.deadline, uint64(sg.id))
	ct.readyNodes += len(sg.ready)
	s.totalReady += len(sg.ready)
	s.live++
	subs, ok := s.byReq[sg.req]
	if !ok && len(s.freeLists) > 0 {
		subs = s.freeLists[len(s.freeLists)-1]
		s.freeLists = s.freeLists[:len(s.freeLists)-1]
	}
	s.byReq[sg.req] = append(subs, sg)
	return sg.id, nil
}

// reuse pops a retired record off free, or makes a new one.
func reuse[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	v := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return v
}

// dropRequest forgets a request whose subgraphs have all retired or been
// purged, keeping its byReq list for the next request.
func (s *Scheduler) dropRequest(req RequestID, subs []*subgraph) {
	delete(s.byReq, req)
	delete(s.lastDev, req)
	clear(subs[:cap(subs)])
	s.freeLists = append(s.freeLists, subs[:0])
}

// keepOrRecycle is every type queue's filter: it keeps subgraphs with work
// left and moves the rest, which byReq has already dropped, to the free
// list.
func (s *Scheduler) keepOrRecycle(sg *subgraph) bool {
	if sg.unissued > 0 || sg.inflight > 0 {
		return true
	}
	sg.nodes = nil // the request's partition, which its owner may reuse
	s.freeSubs = append(s.freeSubs, sg)
	return false
}

// CancelRequest purges every queued (not-yet-issued) node of the request's
// registered subgraphs from the ready queues, so cancelled or expired
// requests stop competing for batch slots. Nodes already placed into
// in-flight tasks are untouched — the engine's execution path is expected to
// skip them (the server drops rows of dead requests at gather time) and the
// subgraphs retire through the normal TaskCompleted path once their last
// in-flight task drains. It returns the number of unissued nodes purged;
// zero means the scheduler held nothing for the request.
func (s *Scheduler) CancelRequest(req RequestID) int {
	subs := s.byReq[req]
	if len(subs) == 0 {
		return 0
	}
	purged := 0
	for _, sg := range subs {
		ct := &s.types[sg.typ]
		ct.readyNodes -= len(sg.ready)
		s.totalReady -= len(sg.ready)
		purged += sg.unissued
		sg.ready = sg.ready[:0]
		sg.unissued = 0
		if sg.inflight == 0 {
			if s.cfg.Chaos.DropCancelPurge {
				// Injected defect: leak the idle subgraph instead of
				// retiring it (see Chaos).
				continue
			}
			// Nothing running references this subgraph: retire it now.
			s.live--
			ct.purge = true
		}
		// Otherwise TaskCompleted retires it when the last task drains
		// (unissued is now 0, so no further tasks can pick it up).
	}
	s.dropRequest(req, subs)
	for i := range s.types {
		if ct := &s.types[i]; ct.purge {
			ct.purge = false
			ct.queue.Filter(s.keepLive)
		}
	}
	return purged
}

// Schedule implements Algorithm 1's Schedule function: pick a cell type for
// the (idle) worker and form up to MaxTasksToSubmit batched tasks for it.
// Dispatch is locality-aware (§5): types whose weights are pinned on the
// worker's device are considered first; only when the device has no local
// ready work does the worker steal a non-resident type, paying a weight
// fetch (Task.Remote). On a single-device scheduler every type is local, so
// behavior is identical to the device-free algorithm. It returns nil when no
// ready work exists or none is compatible with the worker's pins. The slice
// is the scheduler's own, valid until the next Schedule call; the tasks in
// it stay valid until their TaskCompleted.
func (s *Scheduler) Schedule(worker WorkerID) []*Task {
	dev := s.DeviceOf(worker)
	best := s.pickType(dev, true)
	remote := false
	if best == nil && s.devices > 1 {
		best = s.pickType(dev, false)
		remote = best != nil
	}
	if best == nil {
		return nil
	}
	return s.batch(best, worker, dev, remote)
}

// pickType selects the best cell type with ready work among those whose
// residency on dev matches local:
// (a) types with at least a full batch of ready nodes;
// (b) otherwise, types with ready nodes and no running tasks;
// (c) otherwise, types with any ready nodes;
// highest Priority wins (first in typeOrder on ties).
func (s *Scheduler) pickType(dev DeviceID, local bool) *cellType {
	for rule := 'a'; rule <= 'c'; rule++ {
		var best *cellType
		for _, id := range s.typeOrder {
			ct := &s.types[id]
			if ct.residentOn(dev) != local || ct.readyNodes == 0 ||
				rule == 'a' && ct.readyNodes < ct.cfg.MaxBatch ||
				rule == 'b' && ct.runningTasks > 0 {
				continue
			}
			if best == nil || ct.cfg.Priority > best.cfg.Priority {
				best = ct
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// batch implements Algorithm 1's Batch function.
func (s *Scheduler) batch(ct *cellType, worker WorkerID, dev DeviceID, remote bool) []*Task {
	home := dev
	if len(ct.pins) > 0 {
		home = ct.pins[0]
	}
	tasks := s.scheduled[:0]
	for len(tasks) < s.cfg.MaxTasksToSubmit {
		task := reuse(&s.freeTasks)
		*task = Task{
			ID:           s.nextTask,
			Type:         ct.id,
			TypeKey:      ct.cfg.Key,
			Worker:       worker,
			Nodes:        task.nodesBuf[:0],
			Device:       dev,
			HomeDevice:   home,
			Remote:       remote,
			MigratedFrom: task.MigratedFrom[:0],
			subgraphs:    task.subgraphs[:0],
		}
		s.formBatchedTask(ct, worker, task)
		if len(task.Nodes) == 0 || len(task.Nodes) < ct.cfg.MinBatch && len(tasks) > 0 {
			s.retireTask(task)
			break
		}
		s.nextTask++
		if remote {
			s.remoteTasks++
		}
		if s.lastDev != nil {
			// Cross-device state movement: a request whose previous task
			// ran elsewhere must copy its hidden state to dev.
			for _, sg := range task.subgraphs {
				if last, ok := s.lastDev[sg.req]; ok && last != dev {
					task.Migrations++
					task.MigratedFrom = append(task.MigratedFrom, last)
					s.migratedRequests++
				}
				s.lastDev[sg.req] = dev
			}
		}
		// Submit: mark nodes issued, update intra-subgraph dependencies so
		// successors become schedule-ready (safe because tasks pushed to
		// one worker execute in FIFO order), and pin subgraphs.
		for _, sg := range task.subgraphs {
			sg.inflight++
			sg.pinned = worker
		}
		s.updateNodesDependency(ct, task)
		ct.runningTasks++
		s.inflight[task.ID] = task
		tasks = append(tasks, task)
	}
	s.scheduled = tasks
	if len(tasks) == 0 {
		return nil
	}
	return tasks
}

// formBatchedTask implements Algorithm 1's FormBatchedTask: scan the type's
// subgraph queue, taking ready nodes from subgraphs that are unpinned or
// pinned to this worker, until the batch is full. It appends the nodes and
// their subgraphs to the candidate task.
func (s *Scheduler) formBatchedTask(ct *cellType, worker WorkerID, task *Task) {
	for i := 0; i < ct.queue.Len(); i++ {
		sg := ct.queue.At(i)
		if sg.pinned != NoWorker && sg.pinned != worker {
			continue
		}
		if len(sg.ready) == 0 {
			continue
		}
		take := len(sg.ready)
		if room := ct.cfg.MaxBatch - len(task.Nodes); take > room {
			take = room
		}
		for _, p := range sg.ready[:take] {
			task.Nodes = append(task.Nodes, NodeRef{Req: sg.req, Node: sg.nodes[p]})
		}
		task.subgraphs = append(task.subgraphs, sg)
		sg.pendingTake = take
		if len(task.Nodes) == ct.cfg.MaxBatch {
			break
		}
	}
	// Nothing is consumed here: ready lists shrink only when the caller
	// accepts the candidate and runs updateNodesDependency. Rejecting a
	// candidate (under MinBatch with tasks already formed) therefore needs
	// no rollback.
}

// updateNodesDependency implements Algorithm 1's UpdateNodesDependency: for
// every node placed in the task, consume it from its subgraph's ready list
// and release intra-subgraph successors.
func (s *Scheduler) updateNodesDependency(ct *cellType, task *Task) {
	for _, sg := range task.subgraphs {
		take := sg.pendingTake
		sg.pendingTake = 0
		ct.readyNodes -= take
		s.totalReady -= take
		sg.unissued -= take
		fresh := s.fresh[:0]
		if sg.dependents != nil {
			for _, p := range sg.ready[:take] {
				for _, dep := range sg.dependents[sg.depStart[p]:sg.depStart[p+1]] {
					sg.pendingDeps[dep]--
					if sg.pendingDeps[dep] == 0 {
						fresh = append(fresh, dep)
					}
				}
			}
		}
		sg.ready = mergeReady(sg.ready, take, fresh)
		s.fresh = fresh
		ct.readyNodes += len(fresh)
		s.totalReady += len(fresh)
	}
}

// mergeReady drops the first take members of a sorted ready list and merges
// freshly released ones into the rest, in ready's own array. The fresh
// batch is tiny (usually one node per released dependency edge), so it is
// insertion-sorted and then merged from the back in one pass instead of
// re-sorting the whole ready list with sort.Slice, which dominated the
// scheduling loop on long chains.
func mergeReady(ready []int32, take int, fresh []int32) []int32 {
	for i := 1; i < len(fresh); i++ {
		for j := i; j > 0 && fresh[j] < fresh[j-1]; j-- {
			fresh[j], fresh[j-1] = fresh[j-1], fresh[j]
		}
	}
	rest := copy(ready, ready[take:])
	ready = slices.Grow(ready[:rest], len(fresh))[:rest+len(fresh)]
	i, j := rest-1, len(fresh)-1
	for k := len(ready) - 1; j >= 0; k-- {
		if i >= 0 && ready[i] > fresh[j] {
			ready[k] = ready[i]
			i--
		} else {
			ready[k] = fresh[j]
			j--
		}
	}
	return ready
}

// TaskCompleted must be called by the engine when a worker finishes a task.
// It decrements in-flight counters and unpins subgraphs that no longer have
// running tasks; fully drained subgraphs are retired from their queues. The
// task itself is cleared and kept for reuse: read what you need from it
// before the call.
func (s *Scheduler) TaskCompleted(id TaskID) error {
	task, ok := s.inflight[id]
	if !ok {
		return fmt.Errorf("core: completion for unknown task %d", id)
	}
	delete(s.inflight, id)
	ct := &s.types[task.Type]
	ct.runningTasks--
	retire := false
	for _, sg := range task.subgraphs {
		sg.inflight--
		if sg.inflight == 0 {
			sg.pinned = NoWorker
			if sg.unissued == 0 {
				s.live--
				s.forget(sg)
				retire = true
			}
		}
	}
	if retire {
		ct.queue.Filter(s.keepLive)
	}
	s.retireTask(task)
	return nil
}

// retireTask clears a task that is done or was never issued and keeps it,
// with its arrays, for the next one.
func (s *Scheduler) retireTask(t *Task) {
	clear(t.subgraphs)
	*t = Task{
		Worker:       NoWorker,
		MigratedFrom: t.MigratedFrom[:0],
		subgraphs:    t.subgraphs[:0],
		nodesBuf:     t.Nodes[:0],
	}
	s.freeTasks = append(s.freeTasks, t)
}

// forget drops a retired subgraph from its request's list, and the request
// with its last subgraph. A request cancelled earlier is already gone.
func (s *Scheduler) forget(sg *subgraph) {
	subs := s.byReq[sg.req]
	if i := slices.Index(subs, sg); i >= 0 {
		if subs = slices.Delete(subs, i, i+1); len(subs) > 0 {
			s.byReq[sg.req] = subs
			return
		}
		s.dropRequest(sg.req, subs)
	}
}

// ReadyNodes returns the number of schedule-ready nodes for a cell type.
func (s *Scheduler) ReadyNodes(t TypeID) int { return s.types[t].readyNodes }

// TotalReady returns the number of schedule-ready nodes across all types.
func (s *Scheduler) TotalReady() int { return s.totalReady }

// LiveSubgraphs returns how many subgraphs are registered and not yet
// retired.
func (s *Scheduler) LiveSubgraphs() int { return s.live }

// RequestSubgraphs returns how many cancellable subgraphs the scheduler
// still holds for a request (0 after CancelRequest or full retirement).
func (s *Scheduler) RequestSubgraphs(req RequestID) int { return len(s.byReq[req]) }

// InflightTasks returns the number of submitted-but-uncompleted tasks.
func (s *Scheduler) InflightTasks() int { return len(s.inflight) }

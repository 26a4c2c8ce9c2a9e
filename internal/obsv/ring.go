package obsv

import "sync/atomic"

// Kind discriminates span records. Lifecycle kinds (admit through reject)
// carry a request ID and together tell one request's story; span kinds
// (dispatch, task, panic) carry worker/type/batch fields and tell the
// execution pipeline's.
type Kind uint8

// Span record kinds.
const (
	// KindInvalid marks a slot that has never been written.
	KindInvalid Kind = iota
	// KindAdmit records a request entering the system.
	KindAdmit
	// KindFirstExec records the first time any cell of a request executed —
	// the boundary between the paper's queuing and computation phases.
	KindFirstExec
	// KindComplete, KindFail, KindExpire and KindCancel record the four
	// terminal request states.
	KindComplete
	KindFail
	KindExpire
	KindCancel
	// KindReject records a request shed at admission (it never got an ID).
	KindReject
	// KindDispatch records the scheduler handing one batched task to a
	// worker; Queue is the worker's outstanding-task depth at that moment.
	KindDispatch
	// KindTaskExec records one executed batched task: T0 is the dispatch
	// time, T1 the completion time, Batch the number of live rows executed.
	KindTaskExec
	// KindPanic records a recovered cell panic.
	KindPanic
	// KindJournalFlush records one journal group-commit write+flush batch:
	// T0 is the batch collect start, T1 the flush completion, Batch the
	// number of records committed.
	KindJournalFlush
	// KindJournalFsync records one fsync call on the journal's active
	// segment: T0 start, T1 completion. A long T1-T0 is an fsync stall.
	KindJournalFsync
	// KindJournalDurable records one admit record becoming durable (synced
	// or acked per the journal's sync policy); Req links it into the
	// request's causal flow.
	KindJournalDurable
	// KindPolicyShed records the SLA feasibility rule shedding one
	// submission (the companion lifecycle record is KindReject).
	KindPolicyShed
	// KindRebalance records a scheduler pin-rebalance burst; Batch is the
	// number of cell types whose pin moved.
	KindRebalance
)

func (k Kind) String() string {
	switch k {
	case KindAdmit:
		return "admit"
	case KindFirstExec:
		return "first_exec"
	case KindComplete:
		return "complete"
	case KindFail:
		return "fail"
	case KindExpire:
		return "expire"
	case KindCancel:
		return "cancel"
	case KindReject:
		return "reject"
	case KindDispatch:
		return "dispatch"
	case KindTaskExec:
		return "task"
	case KindPanic:
		return "panic"
	case KindJournalFlush:
		return "journal_flush"
	case KindJournalFsync:
		return "journal_fsync"
	case KindJournalDurable:
		return "journal_durable"
	case KindPolicyShed:
		return "policy_shed"
	case KindRebalance:
		return "rebalance"
	}
	return "invalid"
}

// Record flag bits (Record.Flags).
const (
	// FlagRemote marks a task dispatched off its cell type's pinned device.
	FlagRemote uint8 = 1 << iota
	// FlagMigrated marks a task batching at least one migrated subgraph.
	FlagMigrated
)

// Record is one fixed-size span/event record. All fields are plain values so
// writing a Record into a Ring never allocates; Type names its cell type
// by the engine's dense type id (see Observer.SetTypes).
type Record struct {
	Kind Kind
	// Worker is the writing worker's index (meaningful for span kinds).
	Worker uint8
	// Type is the engine's cell-type id + 1, 0 when unknown (span kinds).
	Type uint16
	// Batch is the number of live rows the task executed (span kinds).
	Batch uint16
	// Queue is the worker's task-queue depth at dispatch (span kinds).
	Queue uint16
	// Device is the device-pool index the record's worker belongs to
	// (span kinds; 0 for single-device deployments).
	Device uint8
	// Flags carries the Flag* bits (remote dispatch, migration).
	Flags uint8
	// Req is the request ID (lifecycle kinds; 0 otherwise).
	Req int64
	// T0 is the record's primary timestamp (unix nanoseconds): the event
	// time for lifecycle kinds, the dispatch time for task records.
	T0 int64
	// T1 is the completion timestamp of task records (0 otherwise).
	T1 int64
}

// pack squeezes the small fields into two words so a ring write is seven
// atomic stores (seq twice, meta, aux, req, t0, t1) instead of eleven. The
// first word is full; Device and Flags live in the aux word.
func pack(r Record) uint64 {
	return uint64(r.Kind) |
		uint64(r.Worker)<<8 |
		uint64(r.Type)<<16 |
		uint64(r.Batch)<<32 |
		uint64(r.Queue)<<48
}

func packAux(r Record) uint64 {
	return uint64(r.Device) | uint64(r.Flags)<<8
}

func unpack(m, aux uint64) Record {
	return Record{
		Kind:   Kind(m & 0xff),
		Worker: uint8(m >> 8),
		Type:   uint16(m >> 16),
		Batch:  uint16(m >> 32),
		Queue:  uint16(m >> 48),
		Device: uint8(aux),
		Flags:  uint8(aux >> 8),
	}
}

// slot is one ring entry. seq is a per-slot sequence counter: odd while a
// write is in progress, even when stable. All payload fields are atomics so
// concurrent Snapshot reads are race-free; the seq protocol additionally
// makes them tear-free (a snapshot discards any slot whose seq changed while
// it was being read).
type slot struct {
	seq  atomic.Uint64
	meta atomic.Uint64
	aux  atomic.Uint64
	req  atomic.Int64
	t0   atomic.Int64
	t1   atomic.Int64
}

// Ring is a fixed-capacity, single-writer, lock-free ring of span records.
// Exactly one goroutine may call Write; any number of goroutines
// may call Snapshot/Total/Dropped concurrently. The hot-path write performs
// no heap allocation and takes no lock — it is seven atomic stores — so it
// is safe inside the server's zero-allocation worker loop. When the ring is
// full the oldest record is overwritten (drop-oldest); Dropped counts the
// overwrites.
type Ring struct {
	name    string
	mask    uint64
	slots   []slot
	written atomic.Uint64
}

// DefaultRingCapacity is the per-writer ring size used when none is given.
const DefaultRingCapacity = 4096

// NewRing returns a ring retaining the most recent records. capacity is
// rounded up to a power of two; non-positive means DefaultRingCapacity.
func NewRing(name string, capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{name: name, mask: uint64(n - 1), slots: make([]slot, n)}
}

// Name returns the ring's writer name (e.g. "worker-0").
func (r *Ring) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Cap returns the ring capacity in records.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Write appends one record, overwriting the oldest when full. Single-writer:
// only the owning goroutine may call it. A nil ring is a no-op.
func (r *Ring) Write(rec Record) {
	if r == nil {
		return
	}
	i := r.written.Load()
	s := &r.slots[i&r.mask]
	s.seq.Add(1) // odd: write in progress
	s.meta.Store(pack(rec))
	s.aux.Store(packAux(rec))
	s.req.Store(rec.Req)
	s.t0.Store(rec.T0)
	s.t1.Store(rec.T1)
	s.seq.Add(1) // even: stable
	r.written.Store(i + 1)
}

// Total returns how many records were ever written.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.written.Load()
}

// Dropped returns how many records were overwritten before being retained —
// the drop-oldest counter of the bounded ring.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	if t, c := r.written.Load(), uint64(len(r.slots)); t > c {
		return t - c
	}
	return 0
}

// Snapshot appends the retained records (oldest first) to dst and returns
// it. It is safe to call concurrently with Write: a slot being rewritten
// mid-read is detected via its sequence counter and retried a few times,
// then skipped, so a snapshot never blocks the writer and never returns a
// torn record.
func (r *Ring) Snapshot(dst []Record) []Record {
	if r == nil {
		return dst
	}
	end := r.written.Load()
	start := uint64(0)
	if n := uint64(len(r.slots)); end > n {
		start = end - n
	}
	for i := start; i < end; i++ {
		s := &r.slots[i&r.mask]
		for try := 0; try < 4; try++ {
			seq1 := s.seq.Load()
			if seq1&1 != 0 {
				continue
			}
			rec := unpack(s.meta.Load(), s.aux.Load())
			rec.Req = s.req.Load()
			rec.T0 = s.t0.Load()
			rec.T1 = s.t1.Load()
			if s.seq.Load() == seq1 {
				dst = append(dst, rec)
				break
			}
		}
	}
	return dst
}

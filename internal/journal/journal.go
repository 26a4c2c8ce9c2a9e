package journal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"batchmaker/internal/obsv"
)

// SyncPolicy controls when the flush loop calls fsync.
type SyncPolicy int

const (
	// SyncBatch fsyncs once per group-commit batch before acknowledging it:
	// every acknowledged record survives both process and OS crashes, at
	// one fsync amortized over the whole batch. The default.
	SyncBatch SyncPolicy = iota
	// SyncNone never fsyncs during operation (only at Close): acknowledged
	// records survive a process crash but not an OS crash or power loss.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncBatch:
		return "batch"
	}
	return fmt.Sprintf("sync(%d)", int(p))
}

// ParseSyncPolicy parses the -journal-sync flag vocabulary.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none":
		return SyncNone, nil
	case "batch", "":
		return SyncBatch, nil
	}
	return 0, fmt.Errorf("journal: unknown sync policy %q (want none or batch)", s)
}

// SegmentFile is the journal's view of one segment: sequential writes, an
// fsync barrier, and close. *os.File satisfies it; tests inject failing
// implementations to exercise lossy-mode degradation.
type SegmentFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures a Journal.
type Options struct {
	// Dir is the journal directory (created if missing). Required.
	Dir string
	// Sync is the fsync policy (default SyncBatch).
	Sync SyncPolicy
	// SegmentMaxBytes rotates to a fresh segment once the current one
	// exceeds this size (default 4 MiB).
	SegmentMaxBytes int64
	// Metrics receives the journal's counters and histograms; nil means
	// no-op metrics.
	Metrics *obsv.JournalMetrics
	// Ring receives the journal's trace spans (group-commit flushes, fsyncs,
	// durability acks) for /debug/trace assembly. The flush goroutine is its
	// single writer. A nil ring is a no-op.
	Ring *obsv.Ring
	// OpenSegment opens a fresh segment file for writing (default
	// os.Create). The failure-injection seam for degradation tests.
	OpenSegment func(path string) (SegmentFile, error)
}

func (o Options) withDefaults() Options {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 4 << 20
	}
	if o.Metrics == nil {
		o.Metrics = obsv.NewJournalMetrics(nil)
	}
	if o.OpenSegment == nil {
		o.OpenSegment = func(path string) (SegmentFile, error) { return os.Create(path) }
	}
	return o
}

// Group commit bounds and adaptive pacing (SyncBatch): a batch is held open
// until at least syncSlack× the EWMA fsync cost has passed since the last
// fsync ended, capping the disk's fsync duty cycle at roughly 1/syncSlack of
// wall time under sustained load. An idle append still commits immediately
// (the last fsync is long past), so the policy costs latency only when
// batching is actually paying for it. maxSyncInterval bounds the induced
// acknowledgement lag on slow storage. Nothing in the serving path waits for
// the acknowledgement, so pacing governs fsync cost and ack lag — not
// request latency.
const (
	syncSlack       = 16
	maxSyncInterval = 20 * time.Millisecond
	// flushMaxBatch bounds records per group-commit batch.
	flushMaxBatch = 128
	// queueDepth bounds the append queue: appends that arrive while a batch
	// is held open or fsyncs wait here and ride the next batch. A full queue
	// never blocks the caller: the append is dropped and counted as an error.
	queueDepth = 1024
)

// Journal errors.
var (
	// ErrDegraded acknowledges appends after a write/fsync failure flipped
	// the journal into lossy mode: the record was NOT persisted, but the
	// serving path must keep going.
	ErrDegraded = errors.New("journal: degraded to lossy mode")
	// ErrQueueFull acknowledges an append dropped because the flush loop
	// fell behind the queue depth.
	ErrQueueFull = errors.New("journal: append queue full")
	// ErrClosed acknowledges appends after Close or Kill.
	ErrClosed = errors.New("journal: closed")
)

// pending is one enqueued record with its response channel and enqueue
// timestamp (for the commit-latency metric).
type pending struct {
	rec  Record
	done chan error
	enq  time.Time
}

// Journal is a durable request journal with batched group commit. Appends
// are safe from any goroutine; one flush goroutine owns the segment file and
// writes, fsyncs and acknowledges each batch in turn.
type Journal struct {
	opts Options
	m    *obsv.JournalMetrics

	ch   chan *pending
	quit chan struct{}
	wg   sync.WaitGroup

	// killed simulates a crash: the flush loop stops without flushing and
	// queued records are dropped, exactly as a SIGKILL would drop them.
	killed atomic.Bool
	// degraded flips on the first write/fsync/rotate failure; appends are
	// then acknowledged immediately with ErrDegraded (lossy mode).
	degraded  atomic.Bool
	degradeMu sync.Mutex
	degradeBy error

	// Flush-goroutine-owned segment state.
	f        SegmentFile
	w        *bufio.Writer
	segIdx   int
	segBytes int64
	encBuf   []byte

	// ackedBytes is the current segment's acknowledged-durable prefix: the
	// byte offset covered by the last successful fsync. Kill truncates the
	// segment to it, modeling a machine crash in which written-but-unsynced
	// bytes never reached the platter.
	ackedBytes int64

	// Pacing state read by syncPace: when the last fsync ended and the EWMA
	// cost of one fsync.
	lastSync time.Time
	ewmaSync time.Duration
}

// segmentName formats the idx'th segment's filename.
func segmentName(idx int) string { return fmt.Sprintf("journal-%08d.wal", idx) }

// segmentIndex parses a segment filename; ok is false for foreign files.
func segmentIndex(name string) (int, bool) {
	if !strings.HasPrefix(name, "journal-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".wal"))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// listSegments returns the sorted segment indices present in dir.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, e := range entries {
		if idx, ok := segmentIndex(e.Name()); ok && !e.IsDir() {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	return idxs, nil
}

// Open creates (or joins) the journal directory and starts the flush loop
// appending to a fresh segment after any existing ones. Existing segments
// are never modified — read them with Recover before or after Open.
func Open(opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("journal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", opts.Dir, err)
	}
	idxs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("journal: scanning %s: %w", opts.Dir, err)
	}
	next := 0
	if len(idxs) > 0 {
		next = idxs[len(idxs)-1] + 1
	}
	j := &Journal{
		opts:   opts,
		m:      opts.Metrics,
		ch:     make(chan *pending, queueDepth),
		quit:   make(chan struct{}),
		segIdx: next,
	}
	if err := j.openSegment(); err != nil {
		return nil, err
	}
	j.wg.Add(1)
	go j.flushLoop()
	return j, nil
}

// openSegment opens segment segIdx and writes its magic header. Called by
// Open (before the flush loop starts) and by rotation (on the flush loop).
func (j *Journal) openSegment() error {
	f, err := j.opts.OpenSegment(filepath.Join(j.opts.Dir, segmentName(j.segIdx)))
	if err != nil {
		return fmt.Errorf("journal: opening segment %d: %w", j.segIdx, err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	if _, err := w.WriteString(segmentMagic); err != nil {
		f.Close()
		return fmt.Errorf("journal: writing segment header: %w", err)
	}
	j.f, j.w = f, w
	j.segBytes = int64(len(segmentMagic))
	// Nothing in a fresh segment is durable until its first fsync; a kill
	// before that truncates it to empty (never extends — the file on disk
	// is always at least as long as the last fsynced offset).
	j.ackedBytes = 0
	j.m.Bytes.Add(int64(len(segmentMagic)))
	return nil
}

// AppendAdmit journals a request admission with its serialized payload and
// absolute deadline. The returned channel receives exactly one value once
// the record is durable per the sync policy (nil) or dropped (the reason);
// it is buffered, so callers may also discard it.
func (j *Journal) AppendAdmit(id uint64, payload []byte, deadlineNs int64) <-chan error {
	return j.append(Record{Kind: KindAdmit, ID: id, Payload: payload, DeadlineNs: deadlineNs})
}

// AppendCancel journals a cancellation intent.
func (j *Journal) AppendCancel(id uint64) {
	j.append(Record{Kind: KindCancel, ID: id})
}

// AppendTerminal journals a terminal outcome.
func (j *Journal) AppendTerminal(id uint64, outcome Outcome, reason string) {
	j.append(Record{Kind: KindTerminal, ID: id, Outcome: outcome, Reason: reason})
}

// append enqueues one record for the flush loop. It never blocks: a dead,
// degraded, or backed-up journal acknowledges immediately with the reason,
// and the serving path decides (by policy: lossy) to carry on.
func (j *Journal) append(rec Record) <-chan error {
	done := make(chan error, 1)
	switch {
	case j.killed.Load():
		done <- ErrClosed
		return done
	case j.degraded.Load():
		done <- fmt.Errorf("%w: %v", ErrDegraded, j.degradeCause())
		return done
	}
	select {
	case j.ch <- &pending{rec: rec, done: done, enq: time.Now()}:
	case <-j.quit:
		done <- ErrClosed
	default:
		j.m.Errors.Inc()
		done <- ErrQueueFull
	}
	return done
}

// Degraded reports whether the journal flipped to lossy mode, and why.
func (j *Journal) Degraded() (bool, string) {
	if !j.degraded.Load() {
		return false, ""
	}
	return true, j.degradeCause().Error()
}

// degradeCause returns the failure that flipped the journal to lossy mode.
func (j *Journal) degradeCause() error {
	j.degradeMu.Lock()
	defer j.degradeMu.Unlock()
	return j.degradeBy
}

// flushLoop is the journal's one goroutine. Per batch it waits for the first
// record, holds the batch open for syncPace, takes whatever else is already
// queued, then commits it: write, flush, fsync under SyncBatch, acknowledge.
func (j *Journal) flushLoop() {
	defer j.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	batch := make([]*pending, 0, flushMaxBatch)
	for {
		// Wait for the batch's first record (or shutdown).
		select {
		case p := <-j.ch:
			batch = append(batch[:0], p)
		case <-j.quit:
			j.drainAndExit(batch[:0])
			return
		}
		if wait := j.syncPace(); wait > 0 {
			// Hold the batch open for followers.
			timer.Reset(wait)
			open := true
			for open && len(batch) < flushMaxBatch {
				select {
				case p := <-j.ch:
					batch = append(batch, p)
				case <-timer.C:
					open = false
				case <-j.quit:
					open = false
				}
			}
			if open && !timer.Stop() {
				<-timer.C
			}
		}
		// Greedy drain: take whatever else is already queued, so appends
		// that landed while the window closed (or during the previous
		// commit's fsync) ride this batch instead of forcing another.
		greedy := true
		for greedy && len(batch) < flushMaxBatch {
			select {
			case p := <-j.ch:
				batch = append(batch, p)
			default:
				greedy = false
			}
		}
		j.commit(batch)
		if j.killed.Load() {
			j.drainAndExit(batch[:0])
			return
		}
	}
}

// drainAndExit consumes whatever is still queued at shutdown. On a graceful
// Close the leftovers are committed; on Kill they are dropped and the
// segment is cut back to its acknowledged prefix, exactly as a crash would
// leave it.
func (j *Journal) drainAndExit(batch []*pending) {
	for {
		select {
		case p := <-j.ch:
			batch = append(batch, p)
		default:
			if j.killed.Load() {
				for _, p := range batch {
					p.done <- ErrClosed
				}
				j.truncateUnsynced()
			} else {
				j.commit(batch)
			}
			j.closeSegment(!j.killed.Load() && !j.degraded.Load())
			return
		}
	}
}

// commit writes and flushes one batch, fsyncs it under SyncBatch, and
// acknowledges it. Any failure degrades the journal to lossy mode.
func (j *Journal) commit(batch []*pending) {
	if len(batch) == 0 {
		return
	}
	if j.killed.Load() {
		for _, p := range batch {
			p.done <- ErrClosed
		}
		return
	}
	if j.degraded.Load() {
		j.failBatch(batch, j.degradeCause())
		return
	}
	start := time.Now()
	var bytes int64
	err := func() error {
		for _, p := range batch {
			if j.segBytes >= j.opts.SegmentMaxBytes {
				if err := j.rotate(); err != nil {
					return err
				}
			}
			buf, err := appendRecord(j.encBuf[:0], &p.rec)
			if err != nil {
				return err
			}
			j.encBuf = buf
			if _, err := j.w.Write(buf); err != nil {
				return err
			}
			j.segBytes += int64(len(buf))
			bytes += int64(len(buf))
		}
		return j.w.Flush()
	}()
	j.m.Bytes.Add(bytes)
	j.opts.Ring.Write(obsv.Record{
		Kind:  obsv.KindJournalFlush,
		Batch: uint16(len(batch)),
		T0:    start.UnixNano(),
		T1:    time.Now().UnixNano(),
	})
	if err == nil && j.opts.Sync == SyncBatch {
		err = j.syncNow()
	}
	if err != nil {
		j.degrade(err)
		j.failBatch(batch, err)
		return
	}
	j.ackBatch(batch)
}

// ackBatch resolves a durably committed batch: per-kind counters, commit
// latency, then each record's response channel. Admit records emit a
// durability span so /debug/trace can draw the admit → durable flow arrow.
func (j *Journal) ackBatch(batch []*pending) {
	j.m.BatchRecords.Observe(int64(len(batch)))
	now := time.Now()
	for _, p := range batch {
		switch p.rec.Kind {
		case KindAdmit:
			j.m.AdmitRecords.Inc()
			j.opts.Ring.Write(obsv.Record{
				Kind: obsv.KindJournalDurable,
				Req:  int64(p.rec.ID),
				T0:   now.UnixNano(),
			})
		case KindCancel:
			j.m.CancelRecords.Inc()
		case KindTerminal:
			j.m.TerminalRecords.Inc()
		}
		j.m.Commit.Observe(now.Sub(p.enq))
		p.done <- nil
	}
}

// failBatch acknowledges every record in batch as lost to degradation.
func (j *Journal) failBatch(batch []*pending, err error) {
	for _, p := range batch {
		p.done <- fmt.Errorf("%w: %v", ErrDegraded, err)
	}
}

// syncNow flushes buffered bytes and fsyncs the segment, making everything
// written to it so far acknowledged-durable and feeding the pacing state
// with the observed fsync cost.
func (j *Journal) syncNow() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	t0 := time.Now()
	err := j.f.Sync()
	t1 := time.Now()
	j.opts.Ring.Write(obsv.Record{
		Kind: obsv.KindJournalFsync,
		T0:   t0.UnixNano(),
		T1:   t1.UnixNano(),
	})
	if err != nil {
		return err
	}
	d := t1.Sub(t0)
	if j.ewmaSync == 0 {
		j.ewmaSync = d
	} else {
		j.ewmaSync += (d - j.ewmaSync) / 4
	}
	j.lastSync = t1
	j.m.Fsyncs.Inc()
	j.ackedBytes = j.segBytes
	return nil
}

// syncPace returns how much longer the flush loop should hold the current
// batch open so the fsync duty cycle stays under ~1/syncSlack. Zero means
// commit now; only SyncBatch paces (SyncNone never fsyncs per batch).
func (j *Journal) syncPace() time.Duration {
	if j.opts.Sync != SyncBatch || j.ewmaSync == 0 {
		return 0
	}
	return min(j.ewmaSync*syncSlack, maxSyncInterval) - time.Since(j.lastSync)
}

// rotate seals the current segment (flush + fsync, so a sealed segment is
// never torn) and opens the next one.
func (j *Journal) rotate() error {
	if err := j.syncNow(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	j.segIdx++
	return j.openSegment()
}

// truncateUnsynced models the disk state after a machine crash: bytes
// written to the current segment but never covered by an acknowledged fsync
// are cut off, so recovery sees exactly the acknowledged prefix. (A bare
// process kill would leave them in the page cache, but the journal's
// durability promise — and the conformance harness holding it to that —
// is power-loss-grade.) Segment files without Truncate are left as-is.
func (j *Journal) truncateUnsynced() {
	tf, ok := j.f.(interface{ Truncate(size int64) error })
	if !ok {
		return
	}
	tf.Truncate(j.ackedBytes)
}

// degrade records the first failure and flips to lossy mode.
func (j *Journal) degrade(err error) {
	j.m.Errors.Inc()
	j.degradeMu.Lock()
	if j.degradeBy == nil {
		j.degradeBy = err
	}
	j.degradeMu.Unlock()
	j.degraded.Store(true)
}

// closeSegment flushes (when sync) and closes the current segment file.
func (j *Journal) closeSegment(sync bool) {
	if j.f == nil {
		return
	}
	if sync {
		if err := j.syncNow(); err != nil {
			j.degrade(err)
		}
	}
	j.f.Close()
	j.f, j.w = nil, nil
}

// Close flushes and fsyncs everything queued, then stops the flush loop.
// Safe to call once; appends after Close are acknowledged with ErrClosed.
func (j *Journal) Close() {
	select {
	case <-j.quit:
	default:
		close(j.quit)
	}
	j.wg.Wait()
}

// Kill simulates a crash for tests and the conformance harness: the flush
// loop stops after the batch it is committing, queued and buffered
// (unacknowledged) records are dropped without flush or fsync, and the
// current segment is truncated to its acknowledged-durable prefix
// (written-but-unsynced bytes never survive a power loss). Records already
// acknowledged under SyncBatch remain durable — exactly the guarantee a
// crash leaves behind.
func (j *Journal) Kill() {
	j.killed.Store(true)
	select {
	case <-j.quit:
	default:
		close(j.quit)
	}
	j.wg.Wait()
}

// Package sim contains the discrete-event simulations that regenerate the
// paper's evaluation: a full BatchMaker serving system built on the real
// scheduler (internal/core) and the simulated GPU (internal/device), plus
// the graph-batching baselines the paper compares against — padding with
// bucketing (TensorFlow/MXNet style) and dynamic dataflow-graph merging
// (TensorFlow Fold / DyNet style) — and an "ideal" fixed-graph executor.
//
// Virtual time is a time.Duration since simulation start. The simulations
// are single-threaded and deterministic given workload seeds.
package sim

import (
	"container/heap"
	"time"
)

// event is a scheduled callback in virtual time. Events at equal times fire
// in insertion order (seq breaks ties) so runs are deterministic.
type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a minimal discrete-event loop.
type Engine struct {
	now    time.Duration
	events eventHeap
	seq    int64
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn at absolute virtual time t (clamped to now).
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// Feed schedules fn at each arrival of sched. The next arrival is pulled
// only once fn has run, so a schedule never runs ahead of the clock.
func (e *Engine) Feed(sched Schedule, fn func(Arrival)) {
	if a, ok := sched(); ok {
		e.At(a.At, func() {
			fn(a)
			e.Feed(sched, fn)
		})
	}
}

// Step fires the next event; it returns false when none remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// RunUntil processes events until the queue empties or virtual time would
// pass deadline (events beyond it remain queued).
func (e *Engine) RunUntil(deadline time.Duration) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

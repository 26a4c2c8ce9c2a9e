package server

import (
	"time"

	"batchmaker/internal/core"
)

// slCmdKind discriminates scheduler-loop commands.
type slCmdKind int

const (
	// slAdd registers a batch of subgraph specs (initial admission or a
	// tracker release); replies with the first error after rolling the
	// request's scheduler-side registration back.
	slAdd slCmdKind = iota
	// slCancel purges a request's queued nodes and retires its idle
	// subgraphs.
	slCancel
	// slTaskDone retires one executed task (unpinning its subgraphs) and
	// frees a slot on its worker's channel.
	slTaskDone
	// slStop winds the loop down: no more dispatch; once every dispatched
	// task has completed, worker channels are closed and the loop exits.
	slStop
	// slSetFault installs the admission fault seam (test hook).
	slSetFault
	// slSetMaxBatch applies one adaptive-policy MaxBatch actuation to a
	// cell type (clamped by the scheduler to [MinBatch, configured max]).
	slSetMaxBatch
)

// slCmd is one message to the scheduler loop.
type slCmd struct {
	kind    slCmdKind
	req     core.RequestID
	specs   []core.SubgraphSpec
	task    core.TaskID
	worker  int
	fault   func(core.SubgraphSpec) error
	typeKey string
	batch   int
	reply   chan error
}

// schedulerLoop is the single goroutine that owns the core.Scheduler. It
// dispatches batched tasks onto the bounded per-worker channels — only when
// a channel is guaranteed to have room for a full scheduling round, so a
// dispatch send never blocks — and mirrors the scheduler's gauges into
// atomics and metric cells so Stats/SchedulerClean need no access to the
// loop's state.
func (s *Server) schedulerLoop(sched *core.Scheduler) {
	defer s.wg.Done()
	outstanding := make([]int, len(s.taskChans))
	var admitFault func(core.SubgraphSpec) error
	stopping := false
	rr := 0

	dispatch := func() {
		if stopping {
			return
		}
		for {
			progress := false
			for i := 0; i < len(s.taskChans); i++ {
				w := (rr + i) % len(s.taskChans)
				if outstanding[w] > 0 {
					// The channel holds one round: without room for a full
					// one, skip rather than risk blocking the loop on it.
					continue
				}
				start := time.Now()
				tasks := sched.Schedule(core.WorkerID(w))
				if len(tasks) == 0 {
					continue
				}
				for _, t := range tasks {
					s.obs.dispatch(t, outstanding[w], start.UnixNano())
					s.taskChans[w] <- t
					outstanding[w]++
				}
				progress = true
				s.dispatchRounds.Add(1)
				s.obs.sm.Dispatch.Observe(time.Since(start))
			}
			rr = (rr + 1) % len(s.taskChans)
			if !progress {
				return
			}
		}
	}

	mirror := func() {
		s.schedInflight.Store(int64(sched.InflightTasks()))
		s.schedLive.Store(int64(sched.LiveSubgraphs()))
		s.obs.mirrorScheduler(sched, outstanding)
	}

	total := func() int {
		n := 0
		for _, o := range outstanding {
			n += o
		}
		return n
	}

	// slSetFault replies are deferred until after mirror() so the test seam's
	// guarantee — "when setAdmitFault returns, previously applied commands
	// are reflected in the gauges" — survives batch draining.
	var faultReplies []chan error

	apply := func(cmd slCmd) {
		switch cmd.kind {
		case slAdd:
			var err error
			for _, spec := range cmd.specs {
				if admitFault != nil {
					if err = admitFault(spec); err != nil {
						break
					}
				}
				if _, err = sched.AddSubgraph(spec); err != nil {
					break
				}
			}
			if err != nil {
				// Roll back earlier subgraphs of this request so none stay
				// registered without an owning request.
				sched.CancelRequest(cmd.req)
			}
			cmd.reply <- err
		case slCancel:
			sched.CancelRequest(cmd.req)
		case slTaskDone:
			if err := sched.TaskCompleted(cmd.task); err != nil {
				// A completion for a task the scheduler does not know
				// indicates a bug in this package; surface loudly.
				panic(err)
			}
			outstanding[cmd.worker]--
		case slStop:
			stopping = true
		case slSetFault:
			admitFault = cmd.fault
			faultReplies = append(faultReplies, cmd.reply)
		case slSetMaxBatch:
			sched.SetMaxBatch(cmd.typeKey, cmd.batch)
		}
	}

	for cmd := range s.slCmds {
		// Drain every queued command before scheduling: a burst of task
		// completions and releases is absorbed in one pass, so dispatch sees
		// the union of the newly ready cells (better batches) and the
		// per-command bookkeeping is paid once.
		apply(cmd)
	drain:
		for {
			select {
			case more := <-s.slCmds:
				apply(more)
			default:
				break drain
			}
		}
		dispatch()
		mirror()
		for _, ch := range faultReplies {
			ch <- nil
		}
		faultReplies = faultReplies[:0]
		if stopping && total() == 0 {
			// Every dispatched task has completed, so the worker channels
			// are empty and the workers are idle: closing them releases the
			// workers, whose exit sentinels in turn release the request
			// processor.
			for _, ch := range s.taskChans {
				close(ch)
			}
			return
		}
	}
}

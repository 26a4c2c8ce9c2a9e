package sim

import (
	"fmt"
	"time"

	"batchmaker/internal/core"
	"batchmaker/internal/device"
	"batchmaker/internal/metrics"
	"batchmaker/internal/obsv"
	"batchmaker/internal/policy"
)

// BatchMakerConfig configures the cellular-batching serving simulation
// (§4: manager with request processor + scheduler, one worker per GPU).
type BatchMakerConfig struct {
	Model            *Model
	NumGPUs          int
	Overheads        device.Overheads
	MaxTasksToSubmit int
	// Cluster supplies the devices and the per-pair copy-cost matrix. Each
	// of the NumGPUs worker streams is bound to device w mod N, so N must
	// not exceed NumGPUs. Nil builds a uniform NewCluster(NumGPUs): one
	// device per stream.
	Cluster *device.Cluster
	// Metrics, when set, receives the same metric families the live server
	// publishes (outcome counters, batch occupancy, slot accounting, the
	// queuing/computation latency split, ready-queue depth per cell type,
	// per-device ready depth and copy counters), so a virtual-time run can
	// be scraped or summarized exactly like a real one. Nil disables the
	// hook.
	Metrics *obsv.ServingMetrics
	// Observer, when set, receives the same span-ring records the live
	// server writes (admit/terminal lifecycle, dispatch, task-exec,
	// first-exec, policy and rebalance events) at virtual-time
	// timestamps, so Observer.WriteTrace assembles a Perfetto trace of a
	// sim run exactly as it does for a live one — paper-style figures
	// straight from traces. The sim's event loop is one goroutine, so it
	// is the single writer of every ring it creates. RunSchedule installs
	// the model's type table on it (Observer.SetTypes).
	Observer *obsv.Observer
	// Policy, when set, mirrors the live server's SLA feasibility rule in
	// virtual time: each retired task prices the cells it ran, and an
	// arrival whose backlog per GPU outlasts the SLA at that price is shed
	// (counted in the result extras, never admitted). Timestamps fed to it
	// are virtual nanoseconds, making every decision replayable.
	Policy *policy.Controller
	// Deadline, when positive, gives each request an SLA deadline of
	// arrival+Deadline, in place of its Arrival.Expire. It never expires a
	// request — it drives the scheduler's EDF ordering and the
	// deadline-miss count in the result extras.
	Deadline time.Duration
	// TaskObserver, when set, is called once per retired task, before the
	// tracker learns of it, with the worker, the cell type, the rows it ran
	// for requests still live and the virtual instants it was issued and
	// retired. It is the conformance harness's seam, shaped like
	// server.Config.TaskObserver; rows is only valid during the call.
	TaskObserver func(worker int, typeKey string, rows []core.NodeRef, issued, retired time.Duration)
}

// stateBytes is the per-request device state copied when a request's
// execution migrates between GPUs: h+c at hidden 1024, float32.
const stateBytes = 8192

// weightBytes is one cell type's parameters, fetched over the interconnect
// when a worker steals a task whose weights are pinned on another device
// (§5): the four gate matrices of an LSTM at hidden 1024, float32,
// 4·(1024+1024)·1024·4 bytes.
const weightBytes = 32 << 20

type bmRequest struct {
	tracker   *core.Tracker
	arrival   time.Duration
	deadline  time.Duration // 0 = none
	firstExec time.Duration
	hasExec   bool
}

// batchMakerSim is one run of the BatchMaker simulation.
type batchMakerSim struct {
	cfg   BatchMakerConfig
	eng   *Engine
	sched *core.Scheduler
	// gpus holds one FIFO stream per worker.
	gpus []*device.GPU
	// inflight tasks per worker; a worker asks for more work when it drains.
	inflight []int
	reqs     map[core.RequestID]*bmRequest
	nextID   core.RequestID
	col      *collector
	// stalled records the first instant every worker sat idle beside ready
	// work (-1 while none has): a scheduler that refuses to schedule.
	stalled time.Duration
	// rows is TaskObserver's reused buffer.
	rows []core.NodeRef
	// queuedCells is the admitted not-yet-executed cell backlog — the
	// backlog the policy prices.
	queuedCells int
	sheds       int
	misses      int
	// types is indexed by core.TypeID, a type's position in Model.Types().
	types []bmType
	// obsDevs and obsWorkers cache per-device and per-worker metric handles;
	// nil when cfg.Metrics is nil.
	obsDevs    []*obsv.DeviceMetrics
	obsWorkers []*obsv.WorkerMetrics
	// Span rings mirroring the live pipeline's writer layout; nil (no-op)
	// when cfg.Observer is nil.
	rpRing      *obsv.Ring
	schedRing   *obsv.Ring
	workerRings []*obsv.Ring
}

// bmType is one cell type's kernel cost curve and, when cfg.Metrics is set,
// its metric handles plus its batch capacity (for slot accounting); exec is
// indexed by worker, the same {cell_type, worker} cells the live server's
// workers write.
type bmType struct {
	curve    device.Curve
	tm       *obsv.TypeMetrics
	exec     []*obsv.ExecMetrics
	maxBatch int64
}

// RunBatchMaker simulates BatchMaker serving the workload at one load point
// and returns the measured run result.
func RunBatchMaker(cfg BatchMakerConfig, wl Workload, run RunConfig) (*metrics.RunResult, error) {
	return RunSchedule(cfg, poisson(wl, run), run)
}

// RunSchedule simulates BatchMaker serving the given arrivals and measures
// them over run's window. It fails if a request never resolves,
// if the scheduler does not drain clean, or if every worker ever sat idle
// while ready work waited.
func RunSchedule(cfg BatchMakerConfig, arrivals Schedule, run RunConfig) (*metrics.RunResult, error) {
	if cfg.NumGPUs <= 0 {
		return nil, fmt.Errorf("sim: NumGPUs must be positive")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("sim: nil model")
	}
	if cfg.Cluster == nil {
		cfg.Cluster = device.NewCluster(cfg.NumGPUs)
	} else if cfg.Cluster.N() > cfg.NumGPUs {
		return nil, fmt.Errorf("sim: cluster has %d devices for %d workers", cfg.Cluster.N(), cfg.NumGPUs)
	}
	devices := cfg.Cluster.N()
	// Weight the scheduler's pin assignment by each type's single-cell
	// kernel time so heavy types spread across devices first.
	types := cfg.Model.Types()
	bmTypes := make([]bmType, len(types))
	names := make([]string, len(types))
	maxBatch := make([]int, len(types))
	for i, tc := range types {
		c, ok := cfg.Model.Costs().Curve(tc.Key)
		if !ok {
			return nil, fmt.Errorf("sim: no cost curve for cell type %q", tc.Key)
		}
		if tc.Weight == 0 {
			types[i].Weight = float64(c.Time(1))
		}
		bmTypes[i].curve, names[i], maxBatch[i] = c, tc.Key, tc.MaxBatch
	}
	sched, err := core.NewScheduler(core.Config{
		Types:            types,
		MaxTasksToSubmit: cfg.MaxTasksToSubmit,
		Devices:          devices,
	})
	if err != nil {
		return nil, err
	}
	s := &batchMakerSim{
		cfg:      cfg,
		eng:      NewEngine(),
		sched:    sched,
		gpus:     make([]*device.GPU, cfg.NumGPUs),
		inflight: make([]int, cfg.NumGPUs),
		reqs:     make(map[core.RequestID]*bmRequest),
		col:      newCollector(fmt.Sprintf("BatchMaker-%s", cfg.Model.Name), run),
		stalled:  -1,
		types:    bmTypes,
	}
	for i := range s.gpus {
		s.gpus[i] = &device.GPU{ID: i}
		if err := sched.BindWorker(core.WorkerID(i), core.DeviceID(i%devices)); err != nil {
			return nil, err
		}
	}
	if cfg.Metrics != nil {
		for t, tc := range types {
			ot := &s.types[t]
			ot.tm, ot.maxBatch = cfg.Metrics.Type(tc.Key), int64(tc.MaxBatch)
			for w := 0; w < cfg.NumGPUs; w++ {
				ot.exec = append(ot.exec, cfg.Metrics.Exec(tc.Key, w))
			}
		}
		s.obsDevs = make([]*obsv.DeviceMetrics, devices)
		for d := range s.obsDevs {
			s.obsDevs[d] = cfg.Metrics.Device(d)
		}
		s.obsWorkers = make([]*obsv.WorkerMetrics, cfg.NumGPUs)
		for w := range s.obsWorkers {
			s.obsWorkers[w] = cfg.Metrics.Worker(w)
		}
	}
	if o := cfg.Observer; o != nil {
		s.rpRing = o.NewRing("rp")
		s.schedRing = o.NewRing("sched")
		s.workerRings = make([]*obsv.Ring, cfg.NumGPUs)
		for w := range s.workerRings {
			s.workerRings[w] = o.NewRing(fmt.Sprintf("worker-%d", w))
		}
		o.SetTypes(names, maxBatch)
	}
	s.eng.Feed(arrivals, s.admit)
	for s.eng.Step() {
	}
	switch {
	case s.stalled >= 0:
		return nil, fmt.Errorf("sim: at %v every worker sat idle beside ready work", s.stalled)
	case len(s.reqs) != 0:
		return nil, fmt.Errorf("sim: %d requests never completed", len(s.reqs))
	case sched.LiveSubgraphs() != 0 || sched.TotalReady() != 0 || sched.InflightTasks() != 0:
		return nil, fmt.Errorf("sim: scheduler not drained: live=%d ready=%d inflight=%d",
			sched.LiveSubgraphs(), sched.TotalReady(), sched.InflightTasks())
	}
	if cfg.Policy != nil {
		s.col.res.AddExtra("policy_sheds", float64(s.sheds))
	}
	if cfg.Deadline > 0 {
		s.col.res.AddExtra("deadline_misses", float64(s.misses))
	}
	return s.col.result(), nil
}

func (s *batchMakerSim) admit(a Arrival) {
	if p := s.cfg.Policy; p != nil {
		gpus := s.cfg.NumGPUs
		if d := p.Admit(int64(s.eng.Now()), (s.queuedCells+gpus-1)/gpus); !d.Admit {
			s.sheds++
			if m := s.cfg.Metrics; m != nil {
				m.Rejected.Inc()
			}
			s.rpRing.Write(obsv.Record{Kind: obsv.KindPolicyShed, T0: int64(s.eng.Now())})
			s.rpRing.Write(obsv.Record{Kind: obsv.KindReject, T0: int64(s.eng.Now())})
			return
		}
	}
	g, err := s.cfg.Model.BuildGraph(a.Shape)
	if err != nil {
		panic(fmt.Sprintf("sim: building request graph: %v", err))
	}
	s.nextID++
	id := s.nextID
	tr, err := core.NewTracker(id, g)
	if err != nil {
		panic(fmt.Sprintf("sim: tracker: %v", err))
	}
	req := &bmRequest{tracker: tr, arrival: s.eng.Now(), deadline: a.Expire}
	if s.cfg.Deadline > 0 {
		req.deadline = req.arrival + s.cfg.Deadline
	}
	s.reqs[id] = req
	s.queuedCells += len(g.Nodes)
	if m := s.cfg.Metrics; m != nil {
		m.Admitted.Inc()
		m.Inflight.Set(int64(len(s.reqs)))
	}
	s.rpRing.Write(obsv.Record{Kind: obsv.KindAdmit, Req: int64(id), T0: int64(req.arrival)})
	for _, spec := range tr.InitialSubgraphs() {
		spec.Deadline = int64(req.deadline)
		if _, err := s.sched.AddSubgraph(spec); err != nil {
			panic(fmt.Sprintf("sim: add subgraph: %v", err))
		}
	}
	// Cancellation and expiry are one event: the earlier one ends the
	// request, and the later finds it gone.
	end, kind := a.Cancel, obsv.KindCancel
	if a.Expire > 0 && (end == 0 || a.Expire < end) {
		end, kind = a.Expire, obsv.KindExpire
	}
	if end > 0 {
		s.eng.At(end, func() { s.terminate(id, kind) })
	}
	s.kickIdleWorkers()
}

// terminate ends a live request early with kind (cancel or expire). Its
// rows already in flight are skipped when their task retires, as the live
// worker skips them.
func (s *batchMakerSim) terminate(id core.RequestID, kind obsv.Kind) {
	req := s.reqs[id]
	if req == nil {
		return
	}
	delete(s.reqs, id)
	s.queuedCells -= req.tracker.Remaining()
	s.sched.CancelRequest(id)
	if m := s.cfg.Metrics; m != nil {
		if kind == obsv.KindCancel {
			m.Cancelled.Inc()
		} else {
			m.Expired.Inc()
		}
		m.Inflight.Set(int64(len(s.reqs)))
	}
	s.rpRing.Write(obsv.Record{Kind: kind, Req: int64(id), T0: int64(s.eng.Now())})
}

// kickIdleWorkers offers work to every drained worker, after giving the
// scheduler a chance to move a weight pin if ready depth has skewed (§5).
func (s *batchMakerSim) kickIdleWorkers() {
	if moved := s.sched.MaybeRebalance(); moved > 0 {
		s.col.res.AddExtra("pin_moves", float64(moved))
		if m := s.cfg.Metrics; m != nil {
			m.PinMoves.Add(int64(moved))
		}
		s.schedRing.Write(obsv.Record{
			Kind: obsv.KindRebalance, Batch: uint16(moved), T0: int64(s.eng.Now()),
		})
	}
	idle := true
	for w := range s.gpus {
		if s.inflight[w] == 0 {
			s.scheduleWorker(core.WorkerID(w))
		}
		idle = idle && s.inflight[w] == 0
	}
	if idle && s.stalled < 0 && s.sched.TotalReady() > 0 {
		s.stalled = s.eng.Now()
	}
}

// scheduleWorker runs the cellular-batching scheduler for one worker and
// submits the returned tasks to its GPU stream back to back.
func (s *batchMakerSim) scheduleWorker(w core.WorkerID) {
	tasks := s.sched.Schedule(w)
	if len(tasks) == 0 {
		return
	}
	gpu := s.gpus[w]
	dev := int(s.sched.DeviceOf(w))
	for _, task := range tasks {
		typ := &s.types[task.Type]
		dur := s.cfg.Overheads.PerTask(task.BatchSize()) + typ.curve.Time(task.BatchSize())
		s.col.res.AddExtra("tasks", 1)
		s.col.res.AddExtra("batched_cells", float64(task.BatchSize()))
		if m := s.cfg.Metrics; m != nil {
			batch := int64(task.BatchSize())
			typ.exec[w].Tasks.Inc()
			typ.exec[w].Cells.Add(batch)
			s.obsWorkers[w].Busy.Add(int64(dur))
			m.BatchOccupancy.Observe(batch)
			m.SlotsUsed.Add(batch)
			m.SlotsCap.Add(typ.maxBatch)
		}
		// Cross-device movement (§5): the scheduler marks requests whose
		// previous task ran on another device; their h/c state is copied
		// in. Copies to one destination overlap, so charge the slowest
		// source link once.
		if task.Migrations > 0 {
			var stateCopy time.Duration
			for _, src := range task.MigratedFrom {
				if d := s.cfg.Cluster.CopyTime(int(src), dev, stateBytes); d > stateCopy {
					stateCopy = d
				}
			}
			dur += stateCopy
			s.col.res.AddExtra("migrated_requests", float64(task.Migrations))
			s.col.res.AddExtra("migration_tasks", 1)
		}
		// Remote steal: the type's weights live on HomeDevice and must be
		// fetched before the kernel can run here.
		if task.Remote {
			dur += s.cfg.Cluster.CopyTime(int(task.HomeDevice), dev, weightBytes)
			s.col.res.AddExtra("remote_tasks", 1)
		}
		if (task.Migrations > 0 || task.Remote) && s.obsDevs != nil {
			s.obsDevs[dev].Copies.Add(int64(task.Migrations))
			if task.Remote {
				s.obsDevs[dev].Copies.Inc()
			}
		}
		var flags uint8
		if task.Remote {
			flags |= obsv.FlagRemote
		}
		if task.Migrations > 0 {
			flags |= obsv.FlagMigrated
		}
		s.schedRing.Write(obsv.Record{
			Kind:   obsv.KindDispatch,
			Worker: uint8(w),
			Type:   uint16(task.Type) + 1,
			Batch:  uint16(task.BatchSize()),
			Queue:  uint16(s.inflight[w]),
			Device: uint8(dev),
			Flags:  flags,
			T0:     int64(s.eng.Now()),
		})
		start, end := gpu.Submit(s.eng.Now(), dur)
		for _, ref := range task.Nodes {
			req := s.reqs[ref.Req]
			if !req.hasExec {
				req.hasExec = true
				req.firstExec = start
				if s.workerRings != nil {
					s.workerRings[w].Write(obsv.Record{
						Kind:   obsv.KindFirstExec,
						Worker: uint8(w),
						Batch:  uint16(task.BatchSize()),
						Device: uint8(dev),
						Req:    int64(ref.Req),
						T0:     int64(start),
					})
				}
			}
		}
		if s.workerRings != nil {
			s.workerRings[w].Write(obsv.Record{
				Kind:   obsv.KindTaskExec,
				Worker: uint8(w),
				Type:   uint16(task.Type) + 1,
				Batch:  uint16(task.BatchSize()),
				Device: uint8(dev),
				Flags:  flags,
				T0:     int64(start),
				T1:     int64(end),
			})
		}
		s.inflight[w]++
		t, issued := task, s.eng.Now()
		s.eng.At(end+s.cfg.Overheads.CompletionPoll, func() { s.onTaskDone(w, t, issued, start, end) })
	}
	s.mirrorReady()
}

// mirrorReady refreshes the ready-queue and worker-depth gauges so a sim
// registry exposes the same scheduler view the live server does.
func (s *batchMakerSim) mirrorReady() {
	if s.cfg.Metrics == nil {
		return
	}
	for t := range s.types {
		s.types[t].tm.Ready.Set(int64(s.sched.ReadyNodes(core.TypeID(t))))
	}
	for d, dm := range s.obsDevs {
		dm.Ready.Set(s.sched.DeviceReady(core.DeviceID(d)))
	}
	for w, wm := range s.obsWorkers {
		wm.Depth.Set(int64(s.inflight[w]))
	}
}

func (s *batchMakerSim) onTaskDone(w core.WorkerID, task *core.Task, issued, start, end time.Duration) {
	if p := s.cfg.Policy; p != nil {
		p.Completed(int64(end), task.BatchSize(), 0, end-start)
	}
	if s.cfg.TaskObserver != nil {
		s.rows = s.rows[:0]
		for _, ref := range task.Nodes {
			if s.reqs[ref.Req] != nil {
				s.rows = append(s.rows, ref)
			}
		}
		s.cfg.TaskObserver(int(w), task.TypeKey, s.rows, issued, s.eng.Now())
	}
	for _, ref := range task.Nodes {
		req := s.reqs[ref.Req]
		if req == nil {
			continue // cancelled or expired while in flight
		}
		released, err := req.tracker.NodeDone(ref.Node)
		if err != nil {
			panic(fmt.Sprintf("sim: node done: %v", err))
		}
		s.queuedCells--
		for _, spec := range released {
			spec.Deadline = int64(req.deadline)
			if _, err := s.sched.AddSubgraph(spec); err != nil {
				panic(fmt.Sprintf("sim: add released subgraph: %v", err))
			}
		}
		if req.tracker.Finished() {
			// The result returns to the user as soon as the last cell
			// finishes (notification already included in the event time).
			s.col.record(req.arrival, req.firstExec, end)
			delete(s.reqs, ref.Req)
			if req.deadline > 0 && end > req.deadline {
				s.misses++
			}
			if m := s.cfg.Metrics; m != nil {
				m.Completed.Inc()
				m.Inflight.Set(int64(len(s.reqs)))
				m.ObserveLatencySplit(req.firstExec-req.arrival, end-req.firstExec)
			}
			s.rpRing.Write(obsv.Record{
				Kind: obsv.KindComplete, Req: int64(ref.Req), T0: int64(end),
			})
		}
	}
	if err := s.sched.TaskCompleted(task.ID); err != nil {
		panic(fmt.Sprintf("sim: task completed: %v", err))
	}
	s.inflight[w]--
	if s.inflight[w] == 0 {
		s.scheduleWorker(w)
	}
	// Newly released subgraphs may also feed other drained workers.
	s.kickIdleWorkers()
	s.mirrorReady()
}

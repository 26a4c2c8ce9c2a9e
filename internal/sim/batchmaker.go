package sim

import (
	"fmt"
	"time"

	"batchmaker/internal/core"
	"batchmaker/internal/dataset"
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
	// StateBytes is the per-request device state (h and c vectors) copied
	// when a request's execution migrates between GPUs. At hidden 1024 and
	// float32, h+c is 8 KiB.
	StateBytes int
	// WeightBytes is one cell type's parameter size, fetched over the
	// interconnect when a worker steals a task whose weights are pinned on
	// another device (§5). The default matches an LSTM at hidden 1024.
	WeightBytes int
	// Cluster supplies the device streams and the per-pair copy-cost
	// matrix. Nil builds a uniform NewCluster(NumGPUs); when set, its size
	// must equal NumGPUs.
	Cluster *device.Cluster
	// RebalanceSkew forwards to core.Config: a device's ready depth must
	// exceed skew × the lightest device's before a weight pin moves.
	RebalanceSkew float64
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
	// is the single writer of every ring it creates.
	Observer *obsv.Observer
	// Policy, when set, mirrors the live server's SLA feasibility rule in
	// virtual time: each retired task prices the cells it ran, and an
	// arrival whose backlog per GPU outlasts the SLA at that price is shed
	// (counted in the result extras, never admitted). Timestamps fed to it
	// are virtual nanoseconds, making every decision replayable.
	Policy *policy.Controller
	// Deadline, when positive, gives each request an SLA expiry of
	// arrival+Deadline. The sim never expires requests — the deadline
	// drives the scheduler's EDF ordering and the deadline-miss count in
	// the result extras.
	Deadline time.Duration
}

// DefaultStateBytes is h+c at hidden 1024, float32.
const DefaultStateBytes = 8192

// DefaultWeightBytes is the four gate matrices of an LSTM at hidden 1024,
// float32: 4·(1024+1024)·1024·4 bytes.
const DefaultWeightBytes = 32 << 20

type bmRequest struct {
	id        core.RequestID
	tracker   *core.Tracker
	cells     int
	arrival   time.Duration
	deadline  time.Duration // 0 = none
	firstExec time.Duration
	hasExec   bool
}

// batchMakerSim is one run of the BatchMaker simulation.
type batchMakerSim struct {
	cfg   BatchMakerConfig
	run   RunConfig
	wl    Workload
	eng   *Engine
	sched *core.Scheduler
	gpus  []*device.GPU
	// inflight tasks per worker; a worker asks for more work when it drains.
	inflight []int
	reqs     map[core.RequestID]*bmRequest
	nextID   core.RequestID
	col      *collector
	admitted int
	// queuedCells is the admitted not-yet-executed cell backlog — the
	// backlog the policy prices.
	queuedCells int
	sheds       int
	misses      int
	// obsTypes caches per-cell-type metric handles plus the type's batch
	// capacity (for slot accounting); nil when cfg.Metrics is nil.
	obsTypes map[string]*bmObsType
	// obsDevs and obsWorkers cache per-device and per-worker metric handles;
	// nil when cfg.Metrics is nil.
	obsDevs    []*obsv.DeviceMetrics
	obsWorkers []*obsv.WorkerMetrics
	// Span rings mirroring the live pipeline's writer layout; nil (no-op)
	// when cfg.Observer is nil.
	rpRing      *obsv.Ring
	schedRing   *obsv.Ring
	workerRings []*obsv.Ring
	typeIDs     map[string]uint16
}

// bmObsType is one cell type's cached metric handles for the sim hook;
// exec is indexed by worker, the same {cell_type, worker} cells the live
// server's workers write.
type bmObsType struct {
	tm       *obsv.TypeMetrics
	exec     []*obsv.ExecMetrics
	maxBatch int64
}

// RunBatchMaker simulates BatchMaker serving the workload at one load point
// and returns the measured run result.
func RunBatchMaker(cfg BatchMakerConfig, wl Workload, run RunConfig) (*metrics.RunResult, error) {
	if cfg.NumGPUs <= 0 {
		return nil, fmt.Errorf("sim: NumGPUs must be positive")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("sim: nil model")
	}
	if cfg.StateBytes == 0 {
		cfg.StateBytes = DefaultStateBytes
	}
	if cfg.WeightBytes == 0 {
		cfg.WeightBytes = DefaultWeightBytes
	}
	if cfg.Cluster == nil {
		cfg.Cluster = device.NewCluster(cfg.NumGPUs)
	} else if cfg.Cluster.N() != cfg.NumGPUs {
		return nil, fmt.Errorf("sim: cluster has %d devices, config says %d", cfg.Cluster.N(), cfg.NumGPUs)
	}
	// Weight the scheduler's pin assignment by each type's single-cell
	// kernel time so heavy types spread across devices first.
	types := cfg.Model.Types()
	for i := range types {
		if types[i].Weight == 0 {
			types[i].Weight = float64(cfg.Model.KernelTime(types[i].Key, 1))
		}
	}
	sched, err := core.NewScheduler(core.Config{
		Types:            types,
		MaxTasksToSubmit: cfg.MaxTasksToSubmit,
		Devices:          cfg.NumGPUs,
		RebalanceSkew:    cfg.RebalanceSkew,
	})
	if err != nil {
		return nil, err
	}
	s := &batchMakerSim{
		cfg:      cfg,
		run:      run,
		wl:       wl,
		eng:      NewEngine(),
		sched:    sched,
		gpus:     make([]*device.GPU, cfg.NumGPUs),
		inflight: make([]int, cfg.NumGPUs),
		reqs:     make(map[core.RequestID]*bmRequest),
		col:      newCollector(fmt.Sprintf("BatchMaker-%s", cfg.Model.Name), run),
	}
	for i := range s.gpus {
		s.gpus[i] = cfg.Cluster.Device(i)
		if err := sched.BindWorker(core.WorkerID(i), core.DeviceID(i)); err != nil {
			return nil, err
		}
	}
	if cfg.Metrics != nil {
		s.obsTypes = make(map[string]*bmObsType)
		for _, tc := range cfg.Model.Types() {
			ot := &bmObsType{tm: cfg.Metrics.Type(tc.Key), maxBatch: int64(tc.MaxBatch)}
			for w := 0; w < cfg.NumGPUs; w++ {
				ot.exec = append(ot.exec, cfg.Metrics.Exec(tc.Key, w))
			}
			s.obsTypes[tc.Key] = ot
		}
		s.obsDevs = make([]*obsv.DeviceMetrics, cfg.NumGPUs)
		s.obsWorkers = make([]*obsv.WorkerMetrics, cfg.NumGPUs)
		for d := range s.obsDevs {
			s.obsDevs[d] = cfg.Metrics.Device(d)
			s.obsWorkers[d] = cfg.Metrics.Worker(d)
		}
	}
	if o := cfg.Observer; o != nil {
		s.rpRing = o.NewRing("rp")
		s.schedRing = o.NewRing("sched")
		s.workerRings = make([]*obsv.Ring, cfg.NumGPUs)
		for w := range s.workerRings {
			s.workerRings[w] = o.NewRing(fmt.Sprintf("worker-%d", w))
		}
		s.typeIDs = make(map[string]uint16)
		for _, tc := range cfg.Model.Types() {
			s.typeIDs[tc.Key] = o.InternType(tc.Key)
			o.SetTypeDetail(tc.Key, obsv.TypeDetail{MaxBatch: tc.MaxBatch})
		}
	}
	arrivals := dataset.NewPoisson(run.Seed, run.RatePerSec)
	s.scheduleArrival(arrivals, s.nextArrival(arrivals, 0))
	for s.eng.Step() {
	}
	// Drain check: every admitted request must have completed.
	if len(s.reqs) != 0 {
		return nil, fmt.Errorf("sim: %d requests never completed", len(s.reqs))
	}
	if cfg.Policy != nil {
		s.col.res.AddExtra("policy_sheds", float64(s.sheds))
	}
	if cfg.Deadline > 0 {
		s.col.res.AddExtra("deadline_misses", float64(s.misses))
	}
	return s.col.result(), nil
}

// nextArrival advances from virtual time t by the Poisson stream's next gap,
// compressed or stretched by the run's burst profile. A quiet phase
// (RateScale <= 0) fast-forwards to its end without consuming a gap.
func (s *batchMakerSim) nextArrival(p *dataset.Poisson, t time.Duration) time.Duration {
	for {
		if scale := s.run.rateScale(t); scale > 0 {
			return t + time.Duration(float64(p.NextGapNanos())/scale)
		}
		t = s.run.phaseEnd(t)
		if t > s.run.end() {
			return t
		}
	}
}

func (s *batchMakerSim) scheduleArrival(p *dataset.Poisson, at time.Duration) {
	if at > s.run.end() {
		return
	}
	if s.run.MaxRequests > 0 && s.admitted >= s.run.MaxRequests {
		return
	}
	s.eng.At(at, func() {
		s.admit()
		s.scheduleArrival(p, s.nextArrival(p, s.eng.Now()))
	})
}

func (s *batchMakerSim) admit() {
	// Sample the shape before the gate so the workload stream stays aligned
	// between policy-on and policy-off arms of the same seed.
	shape := s.wl.Next()
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
	g, err := s.cfg.Model.BuildGraph(shape)
	if err != nil {
		panic(fmt.Sprintf("sim: building request graph: %v", err))
	}
	s.nextID++
	id := s.nextID
	tr, err := core.NewTracker(id, g)
	if err != nil {
		panic(fmt.Sprintf("sim: tracker: %v", err))
	}
	req := &bmRequest{id: id, tracker: tr, cells: len(g.Nodes), arrival: s.eng.Now()}
	if s.cfg.Deadline > 0 {
		req.deadline = req.arrival + s.cfg.Deadline
	}
	s.reqs[id] = req
	s.admitted++
	s.queuedCells += req.cells
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
	s.kickIdleWorkers()
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
	for w := range s.gpus {
		if s.inflight[w] == 0 {
			s.scheduleWorker(core.WorkerID(w))
		}
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
		dur := s.cfg.Overheads.PerTask(task.BatchSize()) + s.cfg.Model.KernelTime(task.TypeKey, task.BatchSize())
		s.col.res.AddExtra("tasks", 1)
		s.col.res.AddExtra("batched_cells", float64(task.BatchSize()))
		if ot := s.obsTypes[task.TypeKey]; ot != nil {
			m := s.cfg.Metrics
			batch := int64(task.BatchSize())
			ot.exec[w].Tasks.Inc()
			ot.exec[w].Cells.Add(batch)
			s.obsWorkers[w].Busy.Add(int64(dur))
			m.BatchOccupancy.Observe(batch)
			m.SlotsUsed.Add(batch)
			m.SlotsCap.Add(ot.maxBatch)
		}
		// Cross-device movement (§5): the scheduler marks requests whose
		// previous task ran on another device; their h/c state is copied
		// in. Copies to one destination overlap, so charge the slowest
		// source link once.
		if task.Migrations > 0 {
			var stateCopy time.Duration
			for _, src := range task.MigratedFrom {
				if d := s.cfg.Cluster.CopyTime(int(src), dev, s.cfg.StateBytes); d > stateCopy {
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
			dur += s.cfg.Cluster.CopyTime(int(task.HomeDevice), dev, s.cfg.WeightBytes)
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
			Type:   s.typeIDs[task.TypeKey],
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
				Type:   s.typeIDs[task.TypeKey],
				Batch:  uint16(task.BatchSize()),
				Device: uint8(dev),
				Flags:  flags,
				T0:     int64(start),
				T1:     int64(end),
			})
		}
		s.inflight[w]++
		t := task
		s.eng.At(end+s.cfg.Overheads.CompletionPoll, func() { s.onTaskDone(w, t, start, end) })
	}
	s.mirrorReady()
}

// mirrorReady refreshes the ready-queue and worker-depth gauges so a sim
// registry exposes the same scheduler view the live server does.
func (s *batchMakerSim) mirrorReady() {
	for key, ot := range s.obsTypes {
		ot.tm.Ready.Set(int64(s.sched.ReadyNodes(key)))
	}
	for d, dm := range s.obsDevs {
		dm.Ready.Set(s.sched.DeviceReady(core.DeviceID(d)))
	}
	for w, wm := range s.obsWorkers {
		wm.Depth.Set(int64(s.inflight[w]))
	}
}

func (s *batchMakerSim) onTaskDone(w core.WorkerID, task *core.Task, start, end time.Duration) {
	if p := s.cfg.Policy; p != nil {
		p.Completed(int64(end), task.BatchSize(), 0, end-start)
	}
	for _, ref := range task.Nodes {
		req := s.reqs[ref.Req]
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

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"batchmaker/internal/server"
)

// segArgs describes one segment: a fresh process that sets the program under
// test up, warms it, opens one measured window and reports.
type segArgs struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool   // snapshot layer counters at the window edges, write the trace file
	obsOff   bool   // in process: server built with ObsConfig{Disabled: true}
	bin      string // the batchmaker binary (wire_durable)
	tmp      string // scratch directory inside the checkout
	traceOut string // trace file path (traced only)
}

// segResult is what a segment reports to the run that spawned it.
type segResult struct {
	// ReadyUnixNs is when the W-th warm-up reply arrived. For an in-process
	// segment set-up began when the parent spawned the process, so the parent
	// computes SetupS; a wire segment times it from the batchmaker exec.
	ReadyUnixNs int64
	SetupS      float64

	tally
	ElapsedS    float64 // window opening → last reply
	CPUSeconds  float64 // CPU of the process under test over ElapsedS
	PeakRSSMB   float64
	YardstickMs float64
	LateShare   float64 // share of requests (outside a burst) sent more than 5 ms late
	Checked     int     // replies compared with the sequential oracle
	// Layer holds the per-layer metrics this segment could observe (traced
	// segments only).
	Layer map[string]float64
}

// endToEnd derives the five user-visible metrics of one segment, in raw
// units: nothing is scaled by the yardstick.
func (r *segResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":        r.SetupS,
		"lat_p50_ms":     median(r.LatMs),
		"goodput_rps":    float64(r.InLimit) / r.ElapsedS,
		"cpu_ms_per_req": r.CPUSeconds * 1000 / float64(r.OK),
		"peak_rss_mb":    r.PeakRSSMB,
	}
}

// replyGrace is how long after the window a reply may still arrive before
// its request counts as failed.
const replyGrace = 2 * time.Second

// runSegment is the body of a segment process.
func runSegment(ctx context.Context, a segArgs) (*segResult, error) {
	w := workloadByName(a.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", a.workload)
	}
	if w.wire {
		return wireSegment(ctx, w, a)
	}
	return inprocSegment(ctx, w, a)
}

// closedLoop runs n calls with conc callers, each starting its next call when
// the previous one returned; the first error stops it.
func closedLoop(n, conc int, call func(lane, i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for l := 0; l < conc; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if err := call(l, i); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("warm-up request %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
			}
		}(l)
	}
	wg.Wait()
	return first
}

// openWindow builds the schedule, before the window opens, and times it.
func openWindow(w *workload, a segArgs) (items []item, sampleUs float64) {
	begin := time.Now()
	items = buildSchedule(w, a.seed, a.window)
	return items, us(time.Since(begin)) / float64(len(items))
}

// closeWindow fills the fields every transport shares. Lateness is judged on
// the calm traffic: the one generator goroutine gets a burst admitted only as
// fast as the server takes it (SubmitAsyncOpts unfolds and admits on the
// caller), so the requests due within burstAdmit of a burst are late by design.
func closeWindow(r *segResult, w *workload, window time.Duration, items []item, res []result) {
	r.tally = tallyResults(items, res, w.limit)
	r.ElapsedS = r.LastDone.Seconds()
	calm, late := 0, 0
	for i, l := range r.LateMs {
		if d := items[i].due - (window - burstLead); w.burst > 0 && d >= 0 && d < burstAdmit {
			continue
		}
		calm++
		if l > 5 {
			late++
		}
	}
	r.LateShare = float64(late) / float64(calm)
}

func inprocSegment(ctx context.Context, w *workload, a segArgs) (*segResult, error) {
	m := newModel(w)
	srv, err := server.New(m.serverConfig(w, a.obsOff))
	if err != nil {
		return nil, err
	}
	defer srv.Stop()

	warm := warmupItems(w, a.seed)
	err = closedLoop(len(warm), 2, func(_, i int) error {
		g, err := m.unfold(&warm[i])
		if err != nil {
			return err
		}
		// The policy gate sheds while its throughput estimate is still cold.
		// A refused warm-up request is offered again until it is served, so
		// that set-up always ends after the same W requests' worth of work
		// (counting refusals as replies made setup_s bimodal: 0.37 s or
		// 0.7 s, by how many the gate happened to turn away).
		for {
			_, err := srv.Submit(ctx, g)
			if o, _ := classifyErr(err); o != refused {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		return nil, err
	}
	r := &segResult{ReadyUnixNs: time.Now().UnixNano()}

	items, sampleUs := openWindow(w, a)
	res := make([]result, len(items))
	var before inprocCounters
	if a.traced {
		before = readInproc(srv)
	}
	yard := startYardstick()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var inflight sync.WaitGroup
	runOpenLoop(t0, items, 1, timerSleepUntil, func(_, i int) {
		it, rs := &items[i], &res[i]
		rs.start = time.Since(t0)
		g, err := m.unfold(it)
		rs.sent = time.Since(t0)
		if err != nil {
			rs.mid, rs.done, rs.outcome = rs.sent, rs.sent, failed
			return
		}
		var opts server.SubmitOpts
		if w.policy {
			opts.Deadline = t0.Add(it.due + burstDeadline)
		}
		h, err := srv.SubmitAsyncOpts(g, opts)
		rs.mid = time.Since(t0)
		if err != nil {
			rs.done = rs.mid
			rs.outcome, rs.expired = classifyErr(err)
			return
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			<-h.Done()
			rs.done = time.Since(t0)
			out, err := h.Result()
			rs.outcome, rs.expired = classifyErr(err)
			if err == nil && sampled(i) {
				rs.out = out
			}
		}()
	})
	// A reply still missing after the grace period is a failure: stopping the
	// server resolves every live request with ErrStopped, which classifies so.
	replies := make(chan struct{})
	go func() { inflight.Wait(); close(replies) }()
	select {
	case <-replies:
	case <-time.After(time.Until(t0.Add(a.window + replyGrace))):
		srv.Stop()
		<-replies
	}
	cpu1 := cpuSeconds()
	var yardCPU float64
	r.YardstickMs, yardCPU = yard.finish()
	r.CPUSeconds = cpu1 - cpu0 - yardCPU
	closeWindow(r, w, a.window, items, res)
	if r.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}

	// Correctness: sampled replies must be bit-identical to unbatched
	// execution of the same graph.
	for i := range res {
		if res[i].out == nil {
			continue
		}
		want, err := m.oracle(&items[i])
		if err != nil {
			return nil, err
		}
		for name, t := range want {
			if got := res[i].out[name]; got == nil || !got.Equal(t) {
				return nil, fmt.Errorf("%s request %d: output %q differs from the sequential oracle", w.name, i, name)
			}
		}
		r.Checked++
	}

	if a.traced {
		if r.Layer, err = inprocLayer(w, m, srv, before, r, items, res); err != nil {
			return nil, err
		}
		r.Layer["dataset.sample_us_per_req"] = sampleUs
		if err := writeTrace(a.traceOut, w.name, requestSpans(items, res, false)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// inprocCounters are the server's public counters at a window edge.
type inprocCounters struct {
	stats         server.Stats
	allocs        float64
	spans, spansX float64 // span records written / overwritten, all rings
}

func readInproc(srv *server.Server) inprocCounters {
	c := inprocCounters{stats: srv.Stats(), allocs: heapAllocObjects()}
	if o := srv.Observer(); o != nil {
		for _, ring := range o.Rings() {
			c.spans += float64(ring.Total())
			c.spansX += float64(ring.Dropped())
		}
	}
	return c
}

// inprocLayer computes the per-layer metrics an in-process segment can see
// from the server's public counters and the generator's own timestamps.
func inprocLayer(w *workload, m *model, srv *server.Server, before inprocCounters,
	r *segResult, items []item, res []result) (map[string]float64, error) {
	after := readInproc(srv)
	sent, okN := float64(r.Sent), float64(r.OK)
	tasks := float64(after.stats.TasksRun - before.stats.TasksRun)
	cells := float64(after.stats.CellsRun - before.stats.CellsRun)
	scheduled := totalCells(items)
	if err := checkCells(r, int64(after.stats.CellsRun-before.stats.CellsRun), scheduled); err != nil {
		return nil, err
	}
	nsPerCell := float64(after.stats.NsPerCell)
	L := map[string]float64{
		"dataset.cells_per_req":  float64(scheduled) / sent,
		"rnn.model_init_ms":      m.initMs,
		"server.tasks_per_req":   tasks / okN,
		"server.cells_per_task":  cells / tasks,
		"server.ns_per_cell":     nsPerCell,
		"server.dispatch_p50_us": us(after.stats.DispatchP50),
		"server.allocs_per_req":  (after.allocs - before.allocs) / sent,
		"obsv.records_per_req":   (after.spans - before.spans) / sent,
		"obsv.records_dropped":   after.spansX - before.spansX,
	}
	if sm := srv.Metrics(); sm != nil {
		_, q := sm.Queuing.Query()
		_, c := sm.Computation.Query()
		L["server.queuing_p50_ms"], L["server.computation_p50_ms"] = ms(q[0]), ms(c[0])
	}
	// What a cell costs the process beyond the worker's own gather+execute
	// time: scheduling, hand-offs, admission, bookkeeping, the generator.
	L["server.overhead_us_per_cell"] = r.CPUSeconds*1e6/cells - nsPerCell/1000

	var admit, self []float64
	for i := range res {
		rs := &res[i]
		admit = append(admit, us(rs.mid-rs.sent))
		if rs.outcome != ok || len(self) >= ladderRequests {
			continue
		}
		// Time inside the server after admission that the request's own
		// kernels on its critical path do not explain: queueing and hand-offs.
		if g, err := m.unfold(&items[i]); err == nil {
			kernels := time.Duration(float64(g.CriticalPathLen()) * nsPerCell)
			self = append(self, ms(rs.done-rs.mid-kernels))
		}
	}
	L["server.admit_us_p50"] = median(admit)
	L["server.self_ms_per_req"] = mean(self)

	if pm := srv.PolicyMetrics(); pm != nil && w.policy {
		L["policy.shed_share"] = 100 * float64(r.Refused-r.Expired) / sent
		L["policy.expired_share"] = 100 * float64(r.Expired) / sent
		L["policy.gate_flips"] = float64(pm.GateFlips.Value())
		L["policy.max_batch_final"] = float64(min(
			pm.MaxBatch(m.cell0.TypeKey()).Value(), pm.MaxBatch(m.cell1.TypeKey()).Value()))
	}
	return L, nil
}

// checkCells is the generator's health check: when every request was
// answered, the server must have executed exactly the cells the schedule
// holds. Anything else means the load that ran is not the load that was
// generated, and no number from the segment can be trusted.
func checkCells(r *segResult, executed int64, scheduled int) error {
	if r.Refused+r.Failed > 0 {
		return nil // refused requests run only some of their cells
	}
	if executed != int64(scheduled) {
		return fmt.Errorf("server executed %d cells in the window, the schedule holds %d", executed, scheduled)
	}
	return nil
}

func wireSegment(ctx context.Context, w *workload, a segArgs) (*segResult, error) {
	dir, err := os.MkdirTemp(a.tmp, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	execAt := time.Now()
	srv, err := startServer(ctx, a.bin, w, dir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid

	// Connections used as a pool, never more than there are CPUs.
	conns := make([]*wireConn, min(2, runtime.NumCPU()))
	for i := range conns {
		if conns[i], err = dialWire(srv.addr); err != nil {
			return nil, err
		}
		defer conns[i].c.Close()
	}
	readyMs := ms(time.Since(execAt))

	warm := warmupItems(w, a.seed)
	err = closedLoop(len(warm), len(conns), func(lane, i int) error {
		rep, err := conns[lane].roundTrip(warm[i].line, func() {})
		if o, _ := classifyCode(rep.Code); err == nil && o == failed {
			err = fmt.Errorf("server answered %s: %s", rep.Code, rep.Error)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r := &segResult{ReadyUnixNs: time.Now().UnixNano()}
	r.SetupS = time.Since(execAt).Seconds()

	items, sampleUs := openWindow(w, a)
	res := make([]result, len(items))
	var before map[string]float64
	if a.traced {
		if before, err = srv.scrape(); err != nil {
			return nil, err
		}
	}
	for _, c := range conns {
		c.bytes = 0
	}
	yard := startYardstick()
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, c := range conns {
		// A reply that has not arrived by then fails its request.
		c.c.SetDeadline(t0.Add(a.window + replyGrace))
	}
	runOpenLoop(t0, items, len(conns), nanosleepUntil, func(lane, i int) {
		rs := &res[i]
		rs.start = time.Since(t0)
		rs.sent = rs.start
		rep, err := conns[lane].roundTrip(items[i].line, func() { rs.mid = time.Since(t0) })
		rs.done = time.Since(t0)
		if err != nil {
			if rs.mid == 0 {
				rs.mid = rs.done
			}
			rs.outcome = failed
			return
		}
		rs.outcome, rs.expired = classifyCode(rep.Code)
		if rs.outcome == ok && sampled(i) {
			rs.words = rep.Words
		}
	})
	cpu1, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	r.CPUSeconds = cpu1 - cpu0 // the child's alone; the yardstick runs in this process
	r.YardstickMs, _ = yard.finish()
	closeWindow(r, w, a.window, items, res)
	var after map[string]float64
	if a.traced {
		if after, err = srv.scrape(); err != nil {
			return nil, err
		}
	}
	if r.PeakRSSMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}

	// Correctness: the words on the wire must be those of unbatched
	// execution with cells built exactly as the server builds them.
	m := newModel(w)
	for i := range res {
		if res[i].words == nil {
			continue
		}
		want, err := m.oracle(&items[i])
		if err != nil {
			return nil, err
		}
		if len(res[i].words) != items[i].dec {
			return nil, fmt.Errorf("%s request %d: %d words, want %d", w.name, i, len(res[i].words), items[i].dec)
		}
		for t, word := range res[i].words {
			if exp := int(want["word"+strconv.Itoa(t)].At(0, 0)); word != exp {
				return nil, fmt.Errorf("%s request %d: word %d is %d, the sequential oracle says %d", w.name, i, t, word, exp)
			}
		}
		r.Checked++
	}

	if a.traced {
		if r.Layer, err = wireLayer(r, before, after, items, res, conns); err != nil {
			return nil, err
		}
		r.Layer["dataset.sample_us_per_req"] = sampleUs
		r.Layer["wire.ready_ms"] = readyMs
		r.Layer["rnn.model_init_ms"] = m.initMs
		if err := writeTrace(a.traceOut, w.name, requestSpans(items, res, true)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// wireLayer computes the per-layer metrics of a wire segment from the
// child's /metrics at the two window edges and the client's timestamps.
func wireLayer(r *segResult, before, after map[string]float64, items []item, res []result, conns []*wireConn) (map[string]float64, error) {
	// A family the child stopped exporting must fail the run, not read as 0.
	var missing []string
	delta := func(family string) float64 {
		a, found := sumFamily(after, family)
		if !found {
			missing = append(missing, family)
		}
		b, _ := sumFamily(before, family)
		return a - b
	}
	p50 := func(family string) float64 {
		v, found := after[family+`{quantile="0.5"}`]
		if !found {
			missing = append(missing, family)
		}
		return v
	}
	sent, okN := float64(r.Sent), float64(r.OK)
	var rtt, wait []float64
	for i := range res {
		rtt = append(rtt, us(res[i].done-res[i].start))
		wait = append(wait, us(res[i].start-items[i].due))
	}
	bytes := 0
	for _, c := range conns {
		bytes += c.bytes
	}
	tasks, cells := delta("batchmaker_tasks_executed_total"), delta("batchmaker_cells_executed_total")
	scheduled := totalCells(items)
	if err := checkCells(r, int64(cells), scheduled); err != nil {
		return nil, err
	}
	queuing := p50("batchmaker_request_queuing_seconds")
	computation := p50("batchmaker_request_computation_seconds")
	L := map[string]float64{
		"dataset.cells_per_req":      float64(scheduled) / sent,
		"server.tasks_per_req":       tasks / okN,
		"server.cells_per_task":      cells / tasks,
		"server.queuing_p50_ms":      queuing * 1000,
		"server.computation_p50_ms":  computation * 1000,
		"journal.durable_ack_ms_p50": p50("batchmaker_journal_commit_seconds") * 1000,
		"journal.bytes_per_req":      delta("batchmaker_journal_bytes_written_total") / okN,
		"journal.fsyncs_per_s":       delta("batchmaker_journal_fsyncs_total") / r.ElapsedS,
		"journal.records_per_commit": delta("batchmaker_journal_batch_records_sum") / delta("batchmaker_journal_batch_records_count"),
		"wire.rtt_p50_us":            median(rtt),
		"wire.conn_wait_p50_us":      median(wait),
		"wire.overhead_us":           median(rtt) - (queuing+computation)*1e6,
		"wire.bytes_per_req":         float64(bytes) / sent,
		"obsv.records_per_req":       delta("batchmaker_span_records_written") / sent,
		"obsv.records_dropped":       delta("batchmaker_span_records_dropped"),
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("the child's /metrics has no %s", strings.Join(missing, ", "))
	}
	return L, nil
}

// spawnSegment runs one segment in a fresh process of this same binary and
// decodes its report. Cancelling ctx terminates the child; the kernel kills
// it if this process dies first.
func spawnSegment(ctx context.Context, a segArgs) (*segResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-segment",
		"-workload", a.workload, "-seed", strconv.FormatUint(a.seed, 10),
		"-window", a.window.String(), "-traced="+strconv.FormatBool(a.traced),
		"-obs-off="+strconv.FormatBool(a.obsOff), "-bin", a.bin, "-tmp", a.tmp, "-trace-out", a.traceOut)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	spawned := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("segment %s seed %d: %w", a.workload, a.seed, err)
	}
	var r segResult
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("segment %s seed %d: bad report: %w", a.workload, a.seed, err)
	}
	if r.SetupS == 0 {
		r.SetupS = time.Duration(r.ReadyUnixNs - spawned.UnixNano()).Seconds()
	}
	return &r, nil
}

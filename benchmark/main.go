// Command benchmark is the repository's benchmark: an open-loop load harness
// over four workloads that reports five end-to-end metrics and, in a traced
// pass, a ladder of per-layer metrics. See README.md in this directory.
//
// It runs in three ways:
//
//	run.sh --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload, the form BENCHMARK.json's command takes:
//	    8 segments of S/8 seconds, the last stdout line is a JSON result
//	run.sh -seed N [-sets 1] [-trace 0|1] [-workload W]
//	    the whole suite for a person: the same 8 rounds, each round one
//	    segment of every workload, then the traced pass, printed as tables
//	(internal) -segment …  one segment in a fresh process
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// env is where a run finds the binary under test and may write.
type env struct {
	bin string // built cmd/batchmaker
	tmp string // scratch inside the checkout, removed when the run ends
	out string // trace files
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seg      = flag.Bool("segment", false, "internal: run one segment in this process and print its report")
		name     = flag.String("workload", "", "workload to run (suite: default all)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 0, "measured seconds of one run; selects the one-workload form")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics only, 1: traced pass only (suite default: both)")
		sets     = flag.Int("sets", 1, "suite: measure this many sets of rounds, set s with seed+s, and compare their medians")
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json)")
		bin      = flag.String("bin", "", "path of the built cmd/batchmaker binary")
		window   = flag.Duration("window", segmentWindow, "internal: measured window of the segment")
		traced   = flag.Bool("traced", false, "internal: segment snapshots layer counters and writes the trace")
		obsOff   = flag.Bool("obs-off", false, "internal: segment runs the server with observability disabled")
		tmp      = flag.String("tmp", "", "internal: scratch directory of the segment")
		traceOut = flag.String("trace-out", "", "internal: trace file of the segment")
	)
	flag.Parse()
	// SIGINT and SIGTERM cancel ctx; every child process is started under it,
	// and deferred clean-up still runs because run returns instead of exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *seg {
		r, err := runSegment(ctx, segArgs{workload: *name, seed: *seed, window: *window, traced: *traced,
			obsOff: *obsOff, bin: *bin, tmp: *tmp, traceOut: *traceOut})
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(r)
	}

	if *bin == "" {
		return fmt.Errorf("-bin is required (run.sh builds cmd/batchmaker and passes it)")
	}
	e := env{bin: *bin, out: filepath.Join(*root, "benchmark", "out")}
	base := filepath.Join(*root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	var err error
	if e.tmp, err = os.MkdirTemp(base, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.tmp)

	if *seconds == 0 {
		return suite(ctx, e, *root, *name, *seed, *sets, *trace)
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	return oneRun(ctx, e, w, *seed, *seconds, *trace == 1)
}

// segSeed derives the seed of a run's i-th segment, so that the segments of
// one run see different inputs and the same (seed, i) always the same ones.
func segSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

// lateLimit is the share of a segment's requests that may be sent more than
// 5 ms after they were due. Beyond it the generator (or a stall of the whole
// VM), not the server, shaped the segment's numbers, and the segment is
// discarded and measured again, up to lateRetries times per workload and run.
// After that late segments count, with a warning: the stalls come in episodes
// that can outlast any number of retries a run has time for, a run that gives
// up would read as a failure of the program under test, and the median over
// the rounds already shrugs off a bad minority.
const (
	lateLimit   = 0.05
	lateRetries = 3
)

// segment runs one segment in a fresh process. retries is what is left of the
// run's allowance for measuring a late segment again.
func (e env) segment(ctx context.Context, w *workload, seed uint64, window time.Duration, traced, obsOff bool, retries *int) (*segResult, error) {
	for {
		r, err := spawnSegment(ctx, segArgs{workload: w.name, seed: seed, window: window, traced: traced, obsOff: obsOff,
			bin: e.bin, tmp: e.tmp, traceOut: filepath.Join(e.out, "trace_"+w.name+".json")})
		if err != nil || r.LateShare <= lateLimit {
			return r, err
		}
		if *retries == 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %.1f%% of requests were sent more than 5 ms late, and the run has used its %d retries: the segment counts; read its numbers as the machine's, not the server's\n",
				w.name, seed, 100*r.LateShare, lateRetries)
			return r, nil
		}
		*retries--
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %.1f%% of requests were sent more than 5 ms late; segment discarded and measured again\n",
			w.name, seed, 100*r.LateShare)
	}
}

// measure is the one measuring loop, of the one-workload form and of the suite:
// rounds rounds, each one untraced segment of every workload in ws, so that
// with several workloads each one's segments are spread over the whole run
// and sample different states of the machine. Round i draws its inputs from
// segSeed(seed, i).
func (e env) measure(ctx context.Context, ws []*workload, seed uint64, window time.Duration) (map[string][]*segResult, error) {
	segs := map[string][]*segResult{}
	retries := make([]int, len(ws))
	for i := range retries {
		retries[i] = lateRetries
	}
	for round := 0; round < rounds; round++ {
		for i, w := range ws {
			r, err := e.segment(ctx, w, segSeed(seed, round), window, false, false, &retries[i])
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "%s seed %d segment %d/%d: %s\n", w.name, seed, round+1, rounds, segLine(r))
			segs[w.name] = append(segs[w.name], r)
		}
	}
	return segs, nil
}

// segmentValues lists, per end-to-end metric, the value of each segment.
func segmentValues(segs []*segResult) map[string][]float64 {
	by := map[string][]float64{}
	for _, r := range segs {
		for name, v := range r.endToEnd() {
			by[name] = append(by[name], v)
		}
	}
	return by
}

// medians reduces each metric's segment values to the workload's value.
func medians(by map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for name, vs := range by {
		out[name] = median(vs)
	}
	return out
}

// runOutput is the last line a one-workload run prints.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(defs []metricDef, values map[string]float64, attempted, failed int) error {
	out := runOutput{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, found := values[d.name]
		if !found {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// oneRun measures one workload for the given number of seconds, split over
// the rounds, and prints the result line.
func oneRun(ctx context.Context, e env, w *workload, seed uint64, seconds int, traced bool) error {
	window := time.Duration(seconds) * time.Second / rounds
	if window < 2*burstLead {
		return fmt.Errorf("--seconds %d gives windows of %v; the shortest that holds a burst and its drain is %v", seconds, window, 2*burstLead)
	}
	if traced {
		layer, attempted, failed, err := tracedPass(ctx, e, w, seed, window)
		if err != nil {
			return err
		}
		return printResult(perLayer, layer, attempted, failed)
	}
	segs, err := e.measure(ctx, []*workload{w}, seed, window)
	if err != nil {
		return err
	}
	attempted, failed := 0, 0
	for _, r := range segs[w.name] {
		attempted, failed = attempted+r.Sent, failed+r.Failed
	}
	return printResult(endToEnd, medians(segmentValues(segs[w.name])), attempted, failed)
}

func segLine(r *segResult) string {
	m := r.endToEnd()
	return fmt.Sprintf("sent %d ok %d refused %d failed %d checked %d | setup %.3fs p50 %.3fms (n=%d) goodput %.1f/s cpu %.4fms/req rss %.1fMB | late %.1f%% yardstick %.3fms",
		r.Sent, r.OK, r.Refused, r.Failed, r.Checked, m["setup_s"], m["lat_p50_ms"], len(r.LatMs),
		m["goodput_rps"], m["cpu_ms_per_req"], m["peak_rss_mb"], 100*r.LateShare, r.YardstickMs)
}

// tracePairs is how many (untraced, traced) pairs of segments a traced pass
// runs.
const tracePairs = 3

// tracedPass runs tracePairs pairs of (untraced, traced) segments on the same
// inputs, then the layer ladder on the traced segment's requests. Per-layer
// values are medians over the traced segments; the tail percentiles pool
// their latencies.
func tracedPass(ctx context.Context, e env, w *workload, seed uint64, window time.Duration) (map[string]float64, int, int, error) {
	byKey := map[string][]float64{}
	var plainCPU, tracedCPU, lat, lateP99, lateMax, yard []float64
	var sent, okN, refusedN, failedN int
	inflight := 0.0
	retries := lateRetries
	for p := 0; p < tracePairs; p++ {
		s := segSeed(seed, p)
		plain, err := e.segment(ctx, w, s, window, false, false, &retries)
		if err != nil {
			return nil, 0, 0, err
		}
		tr, err := e.segment(ctx, w, s, window, true, false, &retries)
		if err != nil {
			return nil, 0, 0, err
		}
		fmt.Fprintf(os.Stderr, "%s seed %d traced %d/%d: %s\n", w.name, seed, p+1, tracePairs, segLine(tr))
		plainCPU = append(plainCPU, plain.endToEnd()["cpu_ms_per_req"])
		tracedCPU = append(tracedCPU, tr.endToEnd()["cpu_ms_per_req"])
		for k, v := range tr.Layer {
			byKey[k] = append(byKey[k], v)
		}
		lat = append(lat, tr.LatMs...)
		lateP99 = append(lateP99, percentile(tr.LateMs, 99))
		lateMax = append(lateMax, percentile(tr.LateMs, 100))
		yard = append(yard, tr.YardstickMs)
		sent, okN, refusedN, failedN = sent+tr.Sent, okN+tr.OK, refusedN+tr.Refused, failedN+tr.Failed
		// Little's law: requests in the system = throughput × latency.
		inflight = mean(tr.LatMs) / 1000 * float64(tr.OK) / tr.ElapsedS
	}
	L := map[string]float64{}
	for _, d := range perLayer {
		L[d.name] = 0 // a layer the workload bypasses reports 0
	}
	for k, vs := range byKey {
		L[k] = median(vs)
	}
	L["loadgen.sent"], L["loadgen.ok"] = float64(sent), float64(okN)
	L["loadgen.refused"], L["loadgen.failed"] = float64(refusedN), float64(failedN)
	L["loadgen.late_p99_ms"], L["loadgen.late_max_ms"] = median(lateP99), median(lateMax)
	L["loadgen.lat_p90_ms"], L["loadgen.lat_p99_ms"] = percentile(lat, 90), percentile(lat, 99)
	L["loadgen.yardstick_ms"] = median(yard)
	L["loadgen.trace_overhead_pct"] = 100 * (median(tracedCPU) - median(plainCPU)) / median(plainCPU)

	if w.obsProbe {
		off, err := e.segment(ctx, w, segSeed(seed, 0), window, false, true, &retries)
		if err != nil {
			return nil, 0, 0, err
		}
		cpuOff := off.endToEnd()["cpu_ms_per_req"]
		L["obsv.overhead_pct"] = 100 * (median(plainCPU) - cpuOff) / cpuOff
	}

	rungs, err := ladder(w, segSeed(seed, 0), window, int(inflight+0.5), e.tmp)
	if err != nil {
		return nil, 0, 0, err
	}
	for k, v := range rungs {
		L[k] = v
	}
	return L, sent, failedN, nil
}

// environment describes the machine beside the numbers.
func environment() string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = string(b[:len(b)-1])
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s kernel=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
}

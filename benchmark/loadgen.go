package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

// outcome classifies one sent request. sent = ok + refused + failed.
type outcome uint8

const (
	pending outcome = iota // no reply yet; counted as failed if it stays so
	ok                     // a reply (checked against the oracle when sampled)
	refused                // a contract answer: overloaded or expired
	failed                 // transport error, internal/bad_request, no reply
)

// classifyErr maps an in-process submission or result error to an outcome.
// Shedding and expiry are the server doing what its contract says under
// overload, so they are refusals, not failures.
func classifyErr(err error) (o outcome, expired bool) {
	switch {
	case err == nil:
		return ok, false
	case errors.Is(err, server.ErrExpired):
		return refused, true
	case errors.Is(err, server.ErrOverloaded):
		return refused, false
	}
	return failed, false
}

// classifyCode maps a wire reply's error code to an outcome.
func classifyCode(code string) (o outcome, expired bool) {
	switch code {
	case "":
		return ok, false
	case "expired":
		return refused, true
	case "overloaded":
		return refused, false
	}
	return failed, false
}

// result is what the generator learned about one request. Times are offsets
// from the window opening; latency is done minus the item's due time, never
// minus start, so a generator or connection that ran late charges the wait
// to the server (no coordinated omission).
type result struct {
	start   time.Duration // the generator (or a free connection) took the request
	sent    time.Duration // in process: the graph was unfolded, admission begins
	mid     time.Duration // in process: admission returned; wire: the line was written
	done    time.Duration // the reply was complete
	outcome outcome
	expired bool
	// sampled replies kept for the oracle check after the window closes
	out   map[string]*tensor.Tensor
	words []int
}

// sampleEvery and sampleCap pick the replies kept for the oracle: every 50th
// request, at most 32 per segment.
const (
	sampleEvery = 50
	sampleCap   = 32
)

func sampled(i int) bool { return i%sampleEvery == 0 && i/sampleEvery < sampleCap }

// runOpenLoop sends the schedule open loop: each lane claims the next
// request, sleeps (with sleepUntil) until it is due and calls issue. A lane is
// free again when
// issue returns: in process that is right after admission (one generator
// goroutine; replies are awaited by the handles), on the wire after the reply,
// because a connection carries one request at a time and a due request waits
// for a free one. It returns when every request has been issued.
func runOpenLoop(t0 time.Time, items []item, lanes int, sleepUntil func(time.Time), issue func(lane, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				sleepUntil(t0.Add(items[i].due))
				issue(l, i)
			}
		}(l)
	}
	wg.Wait()
}

// nanosleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// runtime waits for sub-millisecond timers in epoll_wait, whose timeout is in
// whole milliseconds: a 50 µs time.Sleep measured 1.05 ms here, nanosleep
// 0.08 ms, against a wire round trip of 0.5 ms. Only the wire generator uses
// it: a thread blocked in a system call keeps its P until sysmon takes it
// back, and in process the server under test needs both Ps.
func nanosleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) only sends the request a little early
	}
}

// tally is the outcome accounting and latency sample of one window.
type tally struct {
	Sent, OK, Refused, Expired, Failed, InLimit int
	LatMs                                       []float64 // done − due of ok requests
	LateMs                                      []float64 // start − due of every request
	LastDone                                    time.Duration
}

func tallyResults(items []item, res []result, limit time.Duration) tally {
	t := tally{Sent: len(res)}
	for i := range res {
		r := &res[i]
		t.LateMs = append(t.LateMs, ms(r.start-items[i].due))
		if r.done > t.LastDone {
			t.LastDone = r.done
		}
		switch r.outcome {
		case ok:
			t.OK++
			lat := r.done - items[i].due
			t.LatMs = append(t.LatMs, ms(lat))
			if lat <= limit {
				t.InLimit++
			}
		case refused:
			t.Refused++
			if r.expired {
				t.Expired++
			}
		default:
			t.Failed++
		}
	}
	return t
}

// cpuSeconds returns user+system CPU time of this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procCPUSeconds returns user+system CPU time of another process from
// /proc/<pid>/stat (fields 14 and 15, in 1/100 s ticks).
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// The command name (field 2) may contain spaces; fields resume after ')'.
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / 100, nil
}

// peakRSSMB returns VmHWM of a process, the high-water mark of its resident
// set, in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// heapAllocObjects reads the process-wide count of heap allocations.
func heapAllocObjects() float64 {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return float64(sample[0].Value.Uint64())
}

// yardstick measures machine speed beside a result: a fixed 1.3 MB float32
// matrix-vector product, timed in thread CPU time every 30 ms while the
// window is open. It is recorded (loadgen.yardstick_ms), never applied to a
// result: it shares cores and caches with the program under test (here it
// reads 0.42 ms beside a busy server and 0.15–0.2 ms on the idle machine), so
// dividing by it would let a change that adds cache or memory pressure shrink
// its own reported cost.
type yardstick struct {
	stop chan struct{}
	done chan struct{}
	ms   []float64
}

const yardDim = 570 // 570×570×4 B ≈ 1.3 MB, L2-resident

func startYardstick() *yardstick {
	y := &yardstick{stop: make(chan struct{}), done: make(chan struct{})}
	mat := make([]float32, yardDim*yardDim)
	vec := make([]float32, yardDim)
	out := make([]float32, yardDim)
	for i := range mat {
		mat[i] = float32(i%7) * 0.25
	}
	for i := range vec {
		vec[i] = float32(i%5) * 0.5
	}
	go func() {
		defer close(y.done)
		// Thread CPU time is only meaningful while the goroutine stays on
		// one thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-y.stop:
				return
			case <-tick.C:
			}
			begin := threadCPU()
			for r := 0; r < yardDim; r++ {
				row, sum := mat[r*yardDim:(r+1)*yardDim], float32(0)
				for c, v := range row {
					sum += v * vec[c]
				}
				out[r] = sum
			}
			y.ms = append(y.ms, ms(threadCPU()-begin))
		}
	}()
	return y
}

// finish stops the yardstick and returns its median iteration time and the
// CPU seconds it used itself, which an in-process segment takes off the
// process's CPU time.
func (y *yardstick) finish() (medianMs, cpuSeconds float64) {
	close(y.stop)
	<-y.done
	for _, v := range y.ms {
		cpuSeconds += v / 1000
	}
	return median(y.ms), cpuSeconds
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// timerSleepUntil sleeps on a runtime timer: up to a millisecond late, but
// the generator stays an ordinary goroutine of the process under test.
func timerSleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

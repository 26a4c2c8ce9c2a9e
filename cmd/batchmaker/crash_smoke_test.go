package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"batchmaker/internal/journal"
)

// smokeProc is one serve-mode batchmaker process under test.
type smokeProc struct {
	cmd  *exec.Cmd
	addr string
	// logs accumulates stderr lines (guarded by mu).
	mu   sync.Mutex
	logs []string
	done chan struct{}
}

var addrRe = regexp.MustCompile(`serving Seq2Seq .* on (\S+)$`)

// startSmokeProc launches the built binary and waits for its listen address.
func startSmokeProc(t *testing.T, bin string, args ...string) *smokeProc {
	t.Helper()
	p := &smokeProc{done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.logs = append(p.logs, line)
			p.mu.Unlock()
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrCh:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		t.Fatalf("server never announced its address; logs:\n%s", p.logText())
	}
	return p
}

func (p *smokeProc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.logs, "\n")
}

// waitForLog polls until a log line matching re appears, returning the match.
func (p *smokeProc) waitForLog(t *testing.T, re *regexp.Regexp, timeout time.Duration) []string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		for _, line := range p.logs {
			if m := re.FindStringSubmatch(line); m != nil {
				p.mu.Unlock()
				return m
			}
		}
		p.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("log line %q never appeared; logs:\n%s", re, p.logText())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// buildSmokeBinary builds the batchmaker binary into a temp dir (skipped in
// -short) and returns its path and the dir.
func buildSmokeBinary(t *testing.T) (bin, tmp string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and signals real processes; skipped in -short")
	}
	tmp = t.TempDir()
	bin = filepath.Join(tmp, "batchmaker")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building binary: %v", err)
	}
	return bin, tmp
}

// TestServeCrashRestartSmoke is the CI crash smoke: build the real binary,
// run it with a journal, SIGKILL it mid-flight, restart it against the same
// journal, and assert the replayed requests complete and the journal
// converges (every admitted request has exactly one terminal, none pending).
func TestServeCrashRestartSmoke(t *testing.T) {
	bin, tmp := buildSmokeBinary(t)
	jdir := filepath.Join(tmp, "journal")

	args := []string{
		"-addr", "127.0.0.1:0",
		"-vocab", "50", "-embed", "16", "-hidden", "64", "-workers", "2",
		"-journal-dir", jdir, "-journal-sync", "batch",
	}

	// Phase 1: serve under load, then SIGKILL mid-flight.
	p1 := startSmokeProc(t, bin, args...)
	const clients = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", p1.addr, 5*time.Second)
			if err != nil {
				return // the kill can race dial; other clients carry the load
			}
			defer conn.Close()
			enc := json.NewEncoder(conn)
			dec := json.NewDecoder(conn)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Long decodes keep requests in flight for many milliseconds,
				// so the SIGKILL lands mid-request with high probability.
				req := apiRequest{IDs: []int{2 + c, 3, 4, 5}, Decode: 3000}
				if err := enc.Encode(req); err != nil {
					return
				}
				var resp apiResponse
				if err := dec.Decode(&resp); err != nil {
					return
				}
			}
		}(c)
	}
	// Let several requests be admitted (and their admit records fsynced),
	// then crash the process without any shutdown path running.
	time.Sleep(400 * time.Millisecond)
	if err := p1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	p1.cmd.Wait()
	<-p1.done

	preRec, err := journal.Recover(jdir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("after crash: %d records, %d pending, %d terminal", preRec.Records, len(preRec.Pending), len(preRec.Terminal))
	if preRec.Records == 0 {
		t.Fatal("crash left an empty journal — the load phase admitted nothing")
	}
	if len(preRec.Pending) == 0 {
		t.Fatal("no pending requests at crash time — the kill did not land mid-flight")
	}

	// Phase 2: restart against the same journal; replay must re-admit the
	// pending requests and run them to completion.
	p2 := startSmokeProc(t, bin, args...)
	m := p2.waitForLog(t, regexp.MustCompile(`journal: replaying (\d+) pending requests \((\d+) re-admitted`), 10*time.Second)
	if m[1] == "0" {
		t.Fatalf("restart saw no pending requests; logs:\n%s", p2.logText())
	}
	done := p2.waitForLog(t, regexp.MustCompile(`journal: replay complete: (\d+)/(\d+) re-admitted requests completed`), 30*time.Second)
	if done[1] != done[2] {
		t.Fatalf("replay completed %s of %s re-admitted requests; logs:\n%s", done[1], done[2], p2.logText())
	}
	// Graceful shutdown so the replay terminals are flushed.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p2.cmd.Wait(); err != nil {
		t.Fatalf("restarted server exited dirty: %v\nlogs:\n%s", err, p2.logText())
	}
	<-p2.done

	// The journal must have converged: every admitted request reached
	// exactly one terminal state, nothing pending, nothing duplicated.
	rec, err := journal.Recover(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 0 {
		ids := make([]string, 0, len(rec.Pending))
		for _, p := range rec.Pending {
			ids = append(ids, fmt.Sprint(p.ID))
		}
		t.Fatalf("requests still pending after replay + clean shutdown: %s", strings.Join(ids, ", "))
	}
	if rec.DuplicateAdmits != 0 || rec.DuplicateTerminals != 0 {
		t.Fatalf("journal anomalies after recovery: %+v", rec)
	}
	for _, p := range preRec.Pending {
		if _, ok := rec.Terminal[p.ID]; !ok {
			t.Fatalf("pre-crash pending request %d has no terminal record after recovery", p.ID)
		}
	}
}

// TestServeSIGTERMDrainsInFlight: SIGTERM lets an in-flight journaled
// request run to completion and answers it before the process exits, so
// the journal holds its completed terminal and a restart replays nothing.
func TestServeSIGTERMDrainsInFlight(t *testing.T) {
	bin, tmp := buildSmokeBinary(t)
	jdir := filepath.Join(tmp, "journal")
	// The default model decodes 4096 steps in well under a second on one
	// core — long enough to be in flight at the signal, short enough for the
	// shutdown bound.
	args := []string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-journal-dir", jdir}

	p := startSmokeProc(t, bin, args...)
	metricsAddr := p.waitForLog(t, regexp.MustCompile(`introspection on http://(\S+)`), 10*time.Second)[1]
	conn, err := net.DialTimeout("tcp", p.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(apiRequest{IDs: []int{4, 9, 2}, Decode: maxDecodeSteps}); err != nil {
		t.Fatal(err)
	}
	// Signal only once the request is admitted and still running.
	for deadline := time.Now().Add(10 * time.Second); !inflightOne(t, metricsAddr); {
		if time.Now().After(deadline) {
			t.Fatalf("request never showed as in flight; logs:\n%s", p.logText())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var resp apiResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no reply after SIGTERM: %v; logs:\n%s", err, p.logText())
	}
	if resp.Error != "" || len(resp.Words) != maxDecodeSteps {
		t.Fatalf("reply after SIGTERM: %d words, error %q (code %q), want %d words",
			len(resp.Words), resp.Error, resp.Code, maxDecodeSteps)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("server exited dirty after SIGTERM: %v\nlogs:\n%s", err, p.logText())
	}
	<-p.done

	// A restart finds nothing to replay, and the request's one terminal is
	// completed.
	p2 := startSmokeProc(t, bin, args...)
	p2.waitForLog(t, regexp.MustCompile(`journal: scanned \d+ segments`), 10*time.Second)
	if strings.Contains(p2.logText(), "journal: replaying") {
		t.Fatalf("restart replayed work a drained shutdown had finished; logs:\n%s", p2.logText())
	}
	// Its boot has already decided what to replay; it holds no work.
	p2.cmd.Process.Kill()
	p2.cmd.Wait()
	<-p2.done
	rec, err := journal.Recover(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 0 || len(rec.Terminal) != 1 {
		t.Fatalf("journal after drained shutdown: %d pending, %d terminals, want 0 and 1", len(rec.Pending), len(rec.Terminal))
	}
	for id, term := range rec.Terminal {
		if term.Outcome != journal.OutcomeCompleted {
			t.Fatalf("request %d journaled %v, want completed", id, term.Outcome)
		}
	}
}

// inflightOne reports whether the server's /metrics shows exactly one live
// request.
func inflightOne(t *testing.T, metricsAddr string) bool {
	t.Helper()
	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains(string(body), "\nbatchmaker_inflight_requests 1\n")
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// wireReply is cmd/batchmaker's response object.
type wireReply struct {
	Words []int  `json:"words"`
	Error string `json:"error"`
	Code  string `json:"code"`
}

// serverProc is the batchmaker binary under test, running as a child.
type serverProc struct {
	cmd         *exec.Cmd
	addr        string // NDJSON front end
	metricsAddr string // /metrics
	logDone     chan struct{}
}

var (
	serveLine   = regexp.MustCompile(`batchmaker serving .* on (\S+)$`)
	metricsLine = regexp.MustCompile(`introspection on http://(\S+)`)
)

// startServer execs the real binary with a journal in dir. Both listeners
// bind port 0; the addresses are read from the server's own log lines.
// Cancelling ctx (SIGINT/SIGTERM in the benchmark) terminates the child, and
// the kernel kills it if the benchmark itself dies.
func startServer(ctx context.Context, bin string, w *workload, dir string) (*serverProc, error) {
	cmd := exec.CommandContext(ctx, bin,
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-vocab", strconv.Itoa(w.vocab), "-embed", strconv.Itoa(w.embed), "-hidden", strconv.Itoa(w.hidden),
		"-workers", "2", "-journal-dir", dir, "-journal-sync", "batch")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 2 * time.Second
	logR, logW := io.Pipe()
	cmd.Stderr = logW
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, logDone: make(chan struct{})}
	addrs := make(chan [2]string, 1) // one send, never blocks the log reader
	go func() {
		defer close(p.logDone)
		var found [2]string
		sc := bufio.NewScanner(logR)
		for sc.Scan() { // keeps draining after the addresses, or the child would block on a full pipe
			if m := serveLine.FindStringSubmatch(sc.Text()); m != nil {
				found[0] = m[1]
			}
			if m := metricsLine.FindStringSubmatch(sc.Text()); m != nil && found[1] == "" {
				found[1] = m[1]
				addrs <- found
			}
		}
	}()
	exited := make(chan error, 1) // one send
	go func() {
		err := cmd.Wait()
		logW.Close()
		exited <- err
	}()
	select {
	case a := <-addrs:
		p.addr, p.metricsAddr = a[0], a[1]
		return p, nil
	case err := <-exited:
		return nil, fmt.Errorf("%s exited before listening: %v", bin, err)
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		<-exited
		return nil, fmt.Errorf("%s did not report its addresses within 20s", bin)
	}
}

// stop terminates the server and waits until it and its log reader are gone.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.logDone: // stderr closes when the process has exited
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-p.logDone
	}
}

// scrape reads the child's /metrics into "name{labels}" → value.
func (p *serverProc) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + p.metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

// sumFamily adds up every series of one family (all label values); found
// says whether the scrape held any.
func sumFamily(m map[string]float64, family string) (sum float64, found bool) {
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			sum, found = sum+v, true
		}
	}
	return sum, found
}

// wireConn is one NDJSON connection; it carries one request at a time.
type wireConn struct {
	c     net.Conn
	r     *bufio.Reader
	bytes int // written + read
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &wireConn{c: c, r: bufio.NewReaderSize(c, 1<<16)}, nil
}

// roundTrip writes one request line and reads the reply line. written is
// called between the two so the caller can stamp the time.
func (wc *wireConn) roundTrip(line []byte, written func()) (wireReply, error) {
	var rep wireReply
	if _, err := wc.c.Write(line); err != nil {
		return rep, err
	}
	written()
	reply, err := wc.r.ReadSlice('\n')
	if err != nil {
		return rep, err
	}
	wc.bytes += len(line) + len(reply)
	err = json.Unmarshal(reply, &rep)
	return rep, err
}

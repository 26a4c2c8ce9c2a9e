package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"batchmaker/internal/journal"
	"batchmaker/internal/obsv"
	"batchmaker/internal/server"
)

func testApp(t *testing.T) *app {
	t.Helper()
	a, err := newApp(appConfig{Vocab: 50, Embed: 8, Hidden: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.close)
	return a
}

func TestHandleFixedDecode(t *testing.T) {
	a := testApp(t)
	resp := a.handle(context.Background(), apiRequest{IDs: []int{4, 5, 6}, Decode: 4})
	if resp.Error != "" {
		t.Fatalf("error: %s", resp.Error)
	}
	if len(resp.Words) != 4 {
		t.Fatalf("words = %v", resp.Words)
	}
	for _, w := range resp.Words {
		if w < 0 || w >= 50 {
			t.Fatalf("word %d out of vocabulary", w)
		}
	}
}

func TestHandleDefaultsDecodeToSourceLength(t *testing.T) {
	a := testApp(t)
	resp := a.handle(context.Background(), apiRequest{IDs: []int{4, 5}})
	if resp.Error != "" || len(resp.Words) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestHandleUntilEOS(t *testing.T) {
	a := testApp(t)
	resp := a.handle(context.Background(), apiRequest{IDs: []int{4, 5, 6}, Decode: 10, UntilEOS: true})
	if resp.Error != "" {
		t.Fatalf("error: %s", resp.Error)
	}
	if len(resp.Words) == 0 || len(resp.Words) > 10 {
		t.Fatalf("words = %v", resp.Words)
	}
}

func TestHandleBadRequest(t *testing.T) {
	a := testApp(t)
	resp := a.handle(context.Background(), apiRequest{IDs: nil})
	if resp.Error == "" || resp.Code != codeBadRequest {
		t.Fatalf("want bad_request for empty source, got %+v", resp)
	}
	if resp := a.handle(context.Background(), apiRequest{IDs: []int{999}}); resp.Error == "" {
		t.Fatal("want error for out-of-vocabulary id")
	}
}

func TestHandleDeadlineExpiresWithCode(t *testing.T) {
	// A 1ns SLA cannot be met: the request must be answered with a
	// structured "expired" error, not a hang or a dropped connection.
	a, err := newApp(appConfig{Vocab: 50, Embed: 8, Hidden: 16, Workers: 1, Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.close)
	resp := a.handle(context.Background(), apiRequest{IDs: []int{4, 5, 6}, Decode: 3})
	if resp.Error == "" || resp.Code != codeExpired {
		t.Fatalf("want expired code, got %+v", resp)
	}
}

func TestHandleOverloadedWithCode(t *testing.T) {
	// With an admission cap of 1 and a server whose only worker is kept
	// busy, the second concurrent request must be shed as "overloaded".
	a, err := newApp(appConfig{Vocab: 50, Embed: 8, Hidden: 16, Workers: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	a.srv.Stop()
	// Swap in a server whose cells sleep, so the first request provably
	// occupies the single admission slot while the probe runs.
	faults := server.NewRandomFaults(1)
	faults.PDelay = 1
	faults.Delay = 20 * time.Millisecond
	srv, err := server.New(server.Config{
		Workers: 1,
		Cells: []server.CellSpec{
			{Cell: a.enc, MaxBatch: 64, Priority: 0},
			{Cell: a.dec, MaxBatch: 32, Priority: 1},
		},
		MaxQueuedRequests: 1,
		Faults:            faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.srv = srv
	t.Cleanup(srv.Stop)

	first := make(chan apiResponse, 1)
	go func() {
		first <- a.handle(context.Background(), apiRequest{IDs: []int{4, 5, 6}, Decode: 5})
	}()
	// Probe only once the first request occupies the admission slot.
	for a.srv.Stats().LiveRequests == 0 {
		select {
		case r := <-first:
			t.Fatalf("long request resolved before being observed live: %+v", r)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	resp := a.handle(context.Background(), apiRequest{IDs: []int{7}, Decode: 1})
	if resp.Code != codeOverloaded {
		t.Fatalf("want overloaded code, got %+v", resp)
	}
	if r := <-first; r.Error != "" {
		t.Fatalf("admitted request failed: %+v", r)
	}
}

func TestServeConnProtocol(t *testing.T) {
	a := testApp(t)
	client, srvSide := net.Pipe()
	go a.serveConn(srvSide)
	defer client.Close()

	enc := json.NewEncoder(client)
	scanner := bufio.NewScanner(client)

	if err := enc.Encode(apiRequest{IDs: []int{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if !scanner.Scan() {
		t.Fatal("no response")
	}
	var resp apiResponse
	if err := json.Unmarshal(scanner.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || len(resp.Words) != 2 {
		t.Fatalf("resp = %+v", resp)
	}

	// Malformed JSON gets an error response, not a dropped connection.
	if _, err := client.Write([]byte("{bad json\n")); err != nil {
		t.Fatal(err)
	}
	if !scanner.Scan() {
		t.Fatal("no response to malformed request")
	}
	if err := json.Unmarshal(scanner.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Fatal("want protocol error")
	}

	// A decode length past maxDecodeSteps is refused before unfolding, on
	// the static and the until_eos path alike: one bad_request line each.
	for _, untilEOS := range []bool{false, true} {
		if err := enc.Encode(apiRequest{IDs: []int{1}, Decode: maxDecodeSteps + 1, UntilEOS: untilEOS}); err != nil {
			t.Fatal(err)
		}
		if !scanner.Scan() {
			t.Fatal("no response to over-long decode")
		}
		resp = apiResponse{}
		if err := json.Unmarshal(scanner.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Code != codeBadRequest || !strings.Contains(resp.Error, "exceeds the limit of 4096 steps") {
			t.Fatalf("decode %d (until_eos=%v): resp = %+v, want bad_request naming the limit", maxDecodeSteps+1, untilEOS, resp)
		}
	}

	// The connection still works afterwards.
	if err := enc.Encode(apiRequest{IDs: []int{7}}); err != nil {
		t.Fatal(err)
	}
	if !scanner.Scan() {
		t.Fatal("connection died after bad request")
	}

	// A line past the 1 MiB cap gets exactly one bad_request, then EOF.
	// net.Pipe is synchronous, so the oversized write needs its own
	// goroutine; the server reads the line to its end before closing, so
	// the write completes.
	wrote := make(chan error, 1)
	go func() {
		_, err := client.Write(append(bytes.Repeat([]byte{'x'}, 1<<20+1), '\n'))
		wrote <- err
	}()
	if !scanner.Scan() {
		t.Fatalf("no response to oversized request: %v", scanner.Err())
	}
	resp = apiResponse{}
	if err := json.Unmarshal(scanner.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != codeBadRequest || !strings.Contains(resp.Error, "exceeds 1048576 bytes") {
		t.Fatalf("oversized request: resp = %+v, want bad_request naming the limit", resp)
	}
	if scanner.Scan() {
		t.Fatalf("second reply after oversized request: %q", scanner.Text())
	}
	if err := <-wrote; err != nil {
		t.Fatalf("oversized write cut short: %v", err)
	}
}

// TestServeConnOversizedLineOverTCP is the oversized-line case over a real
// socket, which net.Pipe cannot stand in for: closing a TCP connection with
// unread bytes in it sends a reset, and a client that is still writing the
// line then loses the reply. The client writes 3 MiB without a newline, then
// the newline, and only then reads: it must get exactly one bad_request and
// a clean EOF.
func TestServeConnOversizedLineOverTCP(t *testing.T) {
	a := testApp(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		a.serveConn(conn)
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{'x'}, 64<<10)
	for sent := 0; sent < 3<<20; sent += len(chunk) {
		if _, err := client.Write(chunk); err != nil {
			t.Fatalf("write failed after %d bytes: %v", sent, err)
		}
	}
	if _, err := client.Write([]byte{'\n'}); err != nil {
		t.Fatalf("writing the newline: %v", err)
	}
	reply, err := io.ReadAll(client)
	if err != nil {
		t.Fatalf("reading the reply: %v (got %q)", err, reply)
	}
	lines := strings.Split(strings.TrimSuffix(string(reply), "\n"), "\n")
	var resp apiResponse
	if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &resp) != nil || resp.Code != codeBadRequest {
		t.Fatalf("reply = %q, want exactly one bad_request", reply)
	}
	<-served
}

// TestFlagValueValidation: an unknown -journal-sync value and a negative
// -sla or -deadline must yield a structured error naming the accepted values
// (the check funcs back fatalFlagValue, which cannot be exercised in-process
// because it exits).
func TestFlagValueValidation(t *testing.T) {
	for _, d := range []time.Duration{-time.Nanosecond, -50 * time.Millisecond} {
		if err := nonNegative(d); err == nil || !strings.Contains(err.Error(), "want 0 for off") {
			t.Fatalf("nonNegative(%v) err = %v, want one naming the accepted values", d, err)
		}
	}
	for _, d := range []time.Duration{0, time.Nanosecond, 50 * time.Millisecond} {
		if err := nonNegative(d); err != nil {
			t.Fatalf("nonNegative(%v) = %v, want nil", d, err)
		}
	}
	for _, c := range []struct{ v, least int }{{2, 3}, {0, 1}, {-1, 1}, {-1, 0}} {
		if err := atLeast(c.v, c.least); err == nil || !strings.Contains(err.Error(), "below the minimum") {
			t.Fatalf("atLeast(%d, %d) err = %v, want one naming the minimum", c.v, c.least, err)
		}
	}
	for _, c := range []struct{ v, least int }{{3, 3}, {1, 1}, {0, 0}, {2000, 3}} {
		if err := atLeast(c.v, c.least); err != nil {
			t.Fatalf("atLeast(%d, %d) = %v, want nil", c.v, c.least, err)
		}
	}
	// The real binary turns a negative -sla or -deadline, and a model shape
	// or worker count it cannot be built with, into exit 2 with the flag's
	// usage hint, before it builds anything.
	t.Run("binary", func(t *testing.T) {
		bin, _ := buildSmokeBinary(t)
		for _, args := range [][]string{
			{"-sla", "-1ms"}, {"-deadline", "-1ms"},
			{"-vocab", "2"}, {"-embed", "-1"}, {"-hidden", "0"},
			{"-workers", "0"}, {"-max-queue", "-1"},
		} {
			out, err := exec.Command(bin, args...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "usage of "+args[0]) {
				t.Fatalf("%s %s: err %v, output %q; want exit 2 with the usage hint", args[0], args[1], err, out)
			}
		}
	})
	for _, in := range []string{"always", "bogus"} {
		_, err := journal.ParseSyncPolicy(in)
		if err == nil || !strings.Contains(err.Error(), "none") || !strings.Contains(err.Error(), "batch") {
			t.Fatalf("ParseSyncPolicy(%q) err = %v, want one naming none and batch", in, err)
		}
	}
}

// failingSegment is a journal segment whose every write fails, so a journal
// over it degrades to lossy mode on its first commit.
type failingSegment struct{}

func (failingSegment) Write([]byte) (int, error) { return 0, errors.New("disk full") }
func (failingSegment) Sync() error               { return nil }
func (failingSegment) Close() error              { return nil }

// TestIncidentRecorderWiring: -incident-dir with -sla and -journal-dir arms
// the flight recorder over the app's own health (journal detail included)
// and the registry the journal and policy families live in, with no SLO
// family; close stops the detector goroutine, which TestMain's leak check
// would otherwise report.
func TestIncidentRecorderWiring(t *testing.T) {
	a, err := newApp(appConfig{
		Vocab: 50, Embed: 8, Hidden: 16, Workers: 1, SLA: 50 * time.Millisecond,
		JournalDir: t.TempDir(), IncidentDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	if a.fr == nil {
		t.Fatal("-incident-dir armed no flight recorder")
	}

	// Stand a degraded journal in for the app's while one bundle is forced,
	// so health.json must carry the journal fields. The detector is stopped
	// first: nothing else reads a.jnl meanwhile.
	a.fr.Stop()
	bad, err := journal.Open(journal.Options{
		Dir:         t.TempDir(),
		OpenSegment: func(string) (journal.SegmentFile, error) { return failingSegment{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := <-bad.AppendAdmit(1, nil, 0); !errors.Is(err, journal.ErrDegraded) {
		t.Fatalf("append to a failing segment: %v, want ErrDegraded", err)
	}
	good := a.jnl
	a.jnl = bad
	path, err := a.fr.Force("", time.Now().UnixNano())
	a.jnl = good
	if err != nil || path == "" {
		t.Fatalf("forced bundle: path %q, err %v", path, err)
	}

	data, err := os.ReadFile(filepath.Join(path, "health.json"))
	if err != nil {
		t.Fatal(err)
	}
	var h obsv.Health
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatalf("health.json: %v", err)
	}
	if h.Status != "serving" || !h.JournalDegraded || !strings.Contains(h.JournalError, "disk full") {
		t.Fatalf("health.json = %s, want a serving app with a degraded journal", data)
	}

	data, err = os.ReadFile(filepath.Join(path, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	prom := string(data)
	for _, family := range []string{"batchmaker_requests_total", "batchmaker_journal_fsyncs_total", "batchmaker_policy_shedding"} {
		if !strings.Contains(prom, "\n"+family) {
			t.Errorf("metrics.prom exports no %s", family)
		}
	}
	if strings.Contains(prom, "batchmaker_slo_") {
		t.Error("metrics.prom exports a batchmaker_slo_ family")
	}
}

// TestReplayBoundsJournaledDecode: a journaled payload is bounded like a live
// one. A pending admit whose decode length is past maxDecodeSteps (written by
// a binary without the bound, or by hand) is resolved failed at replay and
// never unfolded; its neighbour is re-admitted and completes; the journal
// converges to empty.
func TestReplayBoundsJournaledDecode(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const oversized, normal = 1, 2
	for id, req := range map[uint64]apiRequest{
		oversized: {IDs: []int{1}, Decode: maxDecodeSteps + 1},
		normal:    {IDs: []int{4, 9, 2}, Decode: 3},
	} {
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-jnl.AppendAdmit(id, payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()

	a, err := newApp(appConfig{Vocab: 50, Embed: 8, Hidden: 16, Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recovered := a.jm.Recovered.Value()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := a.srv.Drain(ctx)
	a.close()
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}
	if recovered != 1 {
		t.Errorf("replay re-admitted %d requests, want 1", recovered)
	}

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 0 || rec.DuplicateTerminals != 0 {
		t.Errorf("journal did not converge: %d pending, %d duplicate terminals", len(rec.Pending), rec.DuplicateTerminals)
	}
	if got := rec.Terminal[oversized]; got.Outcome != journal.OutcomeFailed || !strings.Contains(got.Reason, "exceeds the limit of 4096 steps") {
		t.Errorf("oversized request: terminal %v %q, want failed naming the limit", got.Outcome, got.Reason)
	}
	if got := rec.Terminal[normal]; got.Outcome != journal.OutcomeCompleted {
		t.Errorf("normal request: terminal %v %q, want completed", got.Outcome, got.Reason)
	}
}

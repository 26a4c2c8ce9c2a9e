// Command batchmaker runs a live cellular-batching inference server over
// TCP with a newline-delimited JSON protocol, serving a Seq2Seq model.
//
// Protocol (one JSON object per line):
//
//	request:  {"ids": [4, 9, 2], "decode": 3}
//	response: {"words": [7, 7, 2]} or {"error": "...", "code": "..."}
//
// Error responses carry a machine-readable code so clients can react
// without parsing text: "overloaded" (shed by admission control — back off
// and retry), "expired" (deadline passed), "cancelled", "draining",
// "stopped", "bad_request", or "internal". Overload is a structured
// response, never a dropped connection.
//
// The -max-queue flag bounds concurrently admitted requests (0 =
// unlimited); -deadline attaches a per-request SLA after which the server
// stops spending batch slots on the request and answers "expired".
//
// Run `batchmaker -demo` to start the server, drive it with a built-in
// concurrent client, print the batching statistics, and exit — a fully
// offline smoke of the serving path.
//
// Pass -metrics-addr to also serve an HTTP introspection endpoint:
// /metrics (Prometheus text format), /debug/trace (causal Chrome/Perfetto
// trace-event JSON: every request's admit → first execution → terminal
// flow, the batches and the queue depths), /healthz (drain/overload
// probe), and /debug/pprof/*. Pass
// -trace-out to write the assembled trace to a file at shutdown, and
// -incident-dir to arm the anomaly-triggered flight recorder. See
// README.md "Monitoring".
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/core"
	"batchmaker/internal/journal"
	"batchmaker/internal/obsv"
	"batchmaker/internal/policy"
	"batchmaker/internal/rnn"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

type apiRequest struct {
	IDs    []int `json:"ids"`
	Decode int   `json:"decode"`
	// UntilEOS cuts the reply after the first <eos> the model emits (the
	// deployed behavior §7.4 describes). The request still runs all Decode
	// steps.
	UntilEOS bool `json:"until_eos,omitempty"`
}

type apiResponse struct {
	Words []int  `json:"words,omitempty"`
	Error string `json:"error,omitempty"`
	// Code classifies errors for programmatic clients; see the package
	// comment for the vocabulary.
	Code string `json:"code,omitempty"`
}

// Error codes of the TCP protocol.
const (
	codeBadRequest = "bad_request"
	codeOverloaded = "overloaded"
	codeExpired    = "expired"
	codeCancelled  = "cancelled"
	codeDraining   = "draining"
	codeStopped    = "stopped"
	codeInternal   = "internal"
)

// maxDecodeSteps bounds a request's decode length (12x the 330-token
// longest sentence PAPER.md reports): -max-queue counts requests, not
// cells, so an unbounded decode is unbounded work on the connection
// goroutine.
const maxDecodeSteps = 4096

// errorCode maps a serving error to its protocol code.
func errorCode(err error) string {
	switch {
	case errors.Is(err, server.ErrOverloaded):
		return codeOverloaded
	case errors.Is(err, server.ErrExpired), errors.Is(err, context.DeadlineExceeded):
		return codeExpired
	case errors.Is(err, server.ErrCancelled), errors.Is(err, context.Canceled):
		return codeCancelled
	case errors.Is(err, server.ErrDraining):
		return codeDraining
	case errors.Is(err, server.ErrStopped):
		return codeStopped
	}
	return codeInternal
}

type appConfig struct {
	Vocab, Embed, Hidden, Workers, MaxQueue int
	// Deadline, when positive, is the per-request SLA.
	Deadline time.Duration
	// SLA, when positive, arms the SLA feasibility rule with this
	// end-to-end latency target.
	SLA time.Duration
	// JournalDir, when set, enables the durable request journal: every
	// admitted request is journaled by a background group commit (the reply
	// does not wait for it; Handle.AdmitDurable is the barrier), and
	// journaled requests without a terminal record are replayed on boot.
	JournalDir string
	// JournalSync is the fsync policy (default journal.SyncBatch).
	JournalSync journal.SyncPolicy
	// IncidentDir, when set, arms the anomaly-triggered flight recorder:
	// detector rules (P99 over SLA, shed bursts, journal degradation) dump
	// self-contained diagnosis bundles into this spool directory.
	IncidentDir string
}

type app struct {
	enc *rnn.EncoderCell
	dec *rnn.DecoderCell
	srv *server.Server
	// jnl and jm are the durable request journal and its metric handles
	// (nil when -journal-dir is unset).
	jnl *journal.Journal
	jm  *obsv.JournalMetrics
	// fr is the anomaly-triggered flight recorder (nil when -incident-dir
	// is unset).
	fr       *obsv.FlightRecorder
	deadline time.Duration
	// replies counts requests between being read off a connection and their
	// reply being written, so shutdown can wait for them; closing, set under
	// replyMu, stops new ones from joining once that wait begins.
	replyMu sync.Mutex
	closing bool
	replies sync.WaitGroup
}

func newApp(cfg appConfig) (*app, error) {
	rng := tensor.NewRNG(2018)
	a := &app{
		enc:      rnn.NewEncoderCell("encoder", cfg.Vocab, cfg.Embed, cfg.Hidden, rng),
		dec:      rnn.NewDecoderCell("decoder", cfg.Vocab, cfg.Embed, cfg.Hidden, rng),
		deadline: cfg.Deadline,
	}
	scfg := server.Config{
		Workers: cfg.Workers,
		Cells: []server.CellSpec{
			{Cell: a.enc, MaxBatch: 64, Priority: 0},
			{Cell: a.dec, MaxBatch: 32, Priority: 1},
		},
		MaxQueuedRequests: cfg.MaxQueue,
	}
	if cfg.SLA > 0 {
		scfg.Policy = policy.Config{Mode: policy.ModeFull, SLA: cfg.SLA}
	}
	var pending []journal.PendingRequest
	// The journal's flush loop starts before the server's observer exists, so
	// its span ring is created standalone here and adopted by the observer
	// after server.New — trace assembly then renders it as the journal track.
	var jRing *obsv.Ring
	if cfg.JournalDir != "" {
		// Recovery first: scan what the previous process left behind, then
		// open a fresh segment for this process's records.
		rec, err := journal.Recover(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		log.Printf("journal: scanned %d segments, %d records (%d torn tails, %d bytes skipped)",
			rec.Segments, rec.Records, rec.TornSegments, rec.TornBytes)
		if rec.TornErr != "" {
			log.Printf("journal: torn tail detail: %s", rec.TornErr)
		}
		reg := obsv.NewRegistry()
		a.jm = obsv.NewJournalMetrics(reg)
		a.jm.Replayed.Add(int64(rec.Records))
		jRing = obsv.NewRing("journal", 0)
		a.jnl, err = journal.Open(journal.Options{
			Dir: cfg.JournalDir, Sync: cfg.JournalSync, Metrics: a.jm, Ring: jRing,
		})
		if err != nil {
			return nil, err
		}
		scfg.Obs.Registry = reg
		scfg.Journal = a.jnl
		scfg.FirstRequestID = rec.MaxID
		pending = rec.Pending
	}
	srv, err := server.New(scfg)
	if err != nil {
		if a.jnl != nil {
			a.jnl.Close()
		}
		return nil, err
	}
	a.srv = srv
	srv.Observer().AdoptRing(jRing)
	if cfg.IncidentDir != "" {
		fr, err := obsv.NewFlightRecorder(srv.Observer(), obsv.FlightRecorderConfig{
			Dir:    cfg.IncidentDir,
			SLA:    cfg.SLA,
			Health: a.health,
		})
		if err != nil {
			a.close()
			return nil, err
		}
		a.fr = fr
		log.Printf("flight recorder armed; incident bundles spool to %s", cfg.IncidentDir)
	}
	if len(pending) > 0 {
		a.replay(pending)
	}
	return a, nil
}

// replay re-admits every journaled request that never reached a terminal
// state, under its original ID. Requests that cannot run again — cancel
// intent on record, deadline passed during downtime, no payload, a decode
// length handle would refuse — are resolved directly with a journaled
// terminal so the journal converges to empty.
func (a *app) replay(pending []journal.PendingRequest) {
	var handles []*server.Handle
	var cancelled, expired, unreplayable int
	now := time.Now().UnixNano()
	for _, p := range pending {
		if p.CancelRequested {
			a.jnl.AppendTerminal(p.ID, journal.OutcomeCancelled, "replay: cancel intent journaled before crash")
			cancelled++
			continue
		}
		if len(p.Payload) == 0 {
			a.jnl.AppendTerminal(p.ID, journal.OutcomeFailed, "replay: no payload journaled")
			unreplayable++
			continue
		}
		if p.DeadlineNs > 0 && p.DeadlineNs <= now {
			a.jnl.AppendTerminal(p.ID, journal.OutcomeExpired, "replay: deadline passed during downtime")
			expired++
			continue
		}
		var req apiRequest
		if err := json.Unmarshal(p.Payload, &req); err != nil {
			a.jnl.AppendTerminal(p.ID, journal.OutcomeFailed, "replay: undecodable payload: "+err.Error())
			unreplayable++
			continue
		}
		if req.Decode <= 0 {
			req.Decode = len(req.IDs)
		}
		if req.Decode > maxDecodeSteps {
			// handle's bound: a journal from a binary without it, or edited
			// by hand, must not make every restart unfold until OOM.
			a.jnl.AppendTerminal(p.ID, journal.OutcomeFailed,
				fmt.Sprintf("replay: decode %d exceeds the limit of %d steps", req.Decode, maxDecodeSteps))
			unreplayable++
			continue
		}
		g, err := cellgraph.UnfoldSeq2Seq(a.enc, a.dec, req.IDs, req.Decode)
		if err != nil {
			a.jnl.AppendTerminal(p.ID, journal.OutcomeFailed, "replay: "+err.Error())
			unreplayable++
			continue
		}
		opts := server.SubmitOpts{ReplayID: core.RequestID(p.ID)}
		if p.DeadlineNs > 0 {
			opts.Deadline = time.Unix(0, p.DeadlineNs)
		}
		h, err := a.srv.SubmitAsyncOpts(g, opts)
		if err != nil {
			a.jnl.AppendTerminal(p.ID, journal.OutcomeFailed, "replay admission: "+err.Error())
			unreplayable++
			continue
		}
		a.jm.Recovered.Inc()
		handles = append(handles, h)
	}
	log.Printf("journal: replaying %d pending requests (%d re-admitted, %d cancelled, %d expired, %d unreplayable)",
		len(pending), len(handles), cancelled, expired, unreplayable)
	go func() {
		ok := 0
		for _, h := range handles {
			<-h.Done()
			if _, err := h.Result(); err == nil {
				ok++
			}
		}
		log.Printf("journal: replay complete: %d/%d re-admitted requests completed", ok, len(handles))
	}()
}

// health augments the server's health state with journal degradation
// detail. A lossy journal does not fail the probe — the server still
// serves correctly; only durability is lost.
func (a *app) health() obsv.Health {
	h := a.srv.Health()
	if a.jnl != nil {
		if deg, why := a.jnl.Degraded(); deg {
			h.JournalDegraded, h.JournalError = true, why
		}
	}
	return h
}

// close stops the flight recorder and the server (journaling terminals for
// everything live), then flushes and closes the journal.
func (a *app) close() {
	if a.fr != nil {
		a.fr.Stop()
	}
	a.srv.Stop()
	if a.jnl != nil {
		a.jnl.Close()
	}
}

// handle serves one request as one server request: the Seq2Seq graph
// unfolded for req.Decode steps, under the -deadline SLA. An until_eos
// reply is that graph's words cut after the first <eos>, the greedy
// decoder's own stopping point.
func (a *app) handle(ctx context.Context, req apiRequest) apiResponse {
	if req.Decode <= 0 {
		req.Decode = len(req.IDs)
	}
	if req.Decode > maxDecodeSteps {
		return apiResponse{Error: fmt.Sprintf("decode %d exceeds the limit of %d steps", req.Decode, maxDecodeSteps), Code: codeBadRequest}
	}
	g, err := cellgraph.UnfoldSeq2Seq(a.enc, a.dec, req.IDs, req.Decode)
	if err != nil {
		return apiResponse{Error: err.Error(), Code: codeBadRequest}
	}
	var opts server.SubmitOpts
	if a.deadline > 0 {
		opts.Deadline = time.Now().Add(a.deadline)
	}
	if a.jnl != nil {
		// The admit record carries the full request so recovery can rebuild
		// and replay it after a crash.
		opts.JournalPayload, _ = json.Marshal(req)
	}
	out, err := a.srv.SubmitOpts(ctx, g, opts)
	if err != nil {
		return apiResponse{Error: err.Error(), Code: errorCode(err)}
	}
	words := make([]int, 0, req.Decode)
	for t := 0; t < req.Decode; t++ {
		words = append(words, int(out[cellgraph.WordName(t)].At(0, 0)))
		if req.UntilEOS && words[t] == rnn.TokenEOS {
			break
		}
	}
	return apiResponse{Words: words}
}

func (a *app) serveConn(conn net.Conn) {
	defer conn.Close()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<20)
	enc := json.NewEncoder(conn)
	for scanner.Scan() {
		a.replyMu.Lock()
		if a.closing {
			a.replyMu.Unlock()
			return
		}
		a.replies.Add(1)
		a.replyMu.Unlock()
		var req apiRequest
		resp := apiResponse{}
		if err := json.Unmarshal(scanner.Bytes(), &req); err != nil {
			resp.Error = "bad request: " + err.Error()
			resp.Code = codeBadRequest
		} else {
			resp = a.handle(context.Background(), req)
		}
		err := enc.Encode(resp)
		a.replies.Done()
		if err != nil {
			return
		}
	}
	// A line past the scanner's 1 MiB cap ends the loop; answer it before
	// closing so the client sees a protocol error, not a bare EOF.
	if errors.Is(scanner.Err(), bufio.ErrTooLong) {
		_ = enc.Encode(apiResponse{Code: codeBadRequest, Error: "request line exceeds 1048576 bytes"}) // closing either way
		drainLine(conn)
	}
}

// shutdownGrace bounds a signalled shutdown's wait for in-flight requests and
// their replies. It stays well below the 5 s a supervisor such as the
// benchmark harness allows between SIGTERM and SIGKILL.
const shutdownGrace = 2 * time.Second

// drainReplies closes the listener, lets in-flight requests run to completion
// and waits for their replies to be written, all within shutdownGrace. A
// request still live at the bound is failed by the server's Stop, as any
// request is on a fail-fast shutdown.
func (a *app) drainReplies(ln net.Listener) {
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := a.srv.Drain(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	a.replyMu.Lock()
	a.closing = true
	a.replyMu.Unlock()
	written := make(chan struct{})
	go func() {
		a.replies.Wait()
		close(written)
	}()
	select {
	case <-written:
	case <-ctx.Done():
		log.Printf("shutdown: replies still unwritten after %v", shutdownGrace)
	}
}

// An oversized line is read to its end before the connection closes, within
// these bounds: past them the client is not going to read the reply anyway.
const (
	drainLimit   = 8 << 20
	drainTimeout = 2 * time.Second
)

// drainLine discards the rest of the request line the scanner gave up on.
// Closing a TCP socket with unread bytes makes the kernel send a reset, and a
// client still writing that line would see the reset instead of the reply.
func drainLine(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(drainTimeout)) // without one the limit still bounds the drain
	buf := make([]byte, 32<<10)
	for left := drainLimit; left > 0; {
		n, err := conn.Read(buf)
		if err != nil || bytes.IndexByte(buf[:n], '\n') >= 0 {
			return
		}
		left -= n
	}
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7431", "listen address")
		vocab    = flag.Int("vocab", 2000, "vocabulary size")
		embed    = flag.Int("embed", 64, "embedding width")
		hidden   = flag.Int("hidden", 256, "hidden width")
		workers  = flag.Int("workers", 2, "worker count")
		maxQueue = flag.Int("max-queue", 0, "max concurrently admitted requests; excess is shed with code \"overloaded\" (0 = unlimited)")
		deadline = flag.Duration("deadline", 0, "per-request SLA; expired requests stop batching and answer code \"expired\" (0 = none)")
		sla      = flag.Duration("sla", 0, "end-to-end latency target arming the SLA feasibility rule: a request is shed (code \"overloaded\" + retry-after) when the cell backlog per worker, at the measured execution time per cell, would outlast it (0 = off)")
		demo     = flag.Bool("demo", false, "drive the server with a built-in client and exit")
		jdir     = flag.String("journal-dir", "", "durable request journal directory; admits are journaled by a background group commit that replies do not wait for, and unfinished requests replay on boot (empty = off)")
		jsync    = flag.String("journal-sync", "batch", "journal fsync policy: none (process-crash safe) or batch (each group commit is fsynced before its records count as durable; default)")
		metrics  = flag.String("metrics-addr", "", "HTTP introspection listen address serving /metrics, /debug/trace, /healthz and /debug/pprof (empty = off)")
		traceOut = flag.String("trace-out", "", "write the assembled causal trace (Chrome/Perfetto trace-event JSON) to this file at shutdown (empty = off)")
		incDir   = flag.String("incident-dir", "", "arm the anomaly-triggered flight recorder, spooling incident bundles (ring snapshot, metrics, profiles, trace) into this directory (empty = off)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (stopped at exit; in serve mode, send SIGINT/SIGTERM)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	for _, f := range []struct {
		name     string
		v, least int
	}{
		{"vocab", *vocab, 3}, // ids 0 and 1 are the decoder's GO and EOS
		{"embed", *embed, 1},
		{"hidden", *hidden, 1},
		{"workers", *workers, 1},
		{"max-queue", *maxQueue, 0},
	} {
		if err := atLeast(f.v, f.least); err != nil {
			fatalFlagValue(f.name, err)
		}
	}
	if err := nonNegative(*sla); err != nil {
		fatalFlagValue("sla", err)
	}
	if err := nonNegative(*deadline); err != nil {
		fatalFlagValue("deadline", err)
	}
	syncPolicy, err := journal.ParseSyncPolicy(*jsync)
	if err != nil {
		fatalFlagValue("journal-sync", err)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	a, err := newApp(appConfig{
		Vocab: *vocab, Embed: *embed, Hidden: *hidden,
		Workers: *workers, MaxQueue: *maxQueue, Deadline: *deadline, SLA: *sla,
		JournalDir: *jdir, JournalSync: syncPolicy, IncidentDir: *incDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer a.close()
	// Registered after srv.Stop so the heap profile is taken while the
	// server (arenas, pools, live maps) is still alive, and the trace is
	// assembled while the rings still hold the final records.
	defer writeMemProfile(*memProf)
	defer writeTraceOut(*traceOut, a.srv)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	log.Printf("batchmaker serving Seq2Seq (vocab=%d hidden=%d) on %s", *vocab, *hidden, ln.Addr())

	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer mln.Close()
		log.Printf("introspection on http://%s (/metrics /debug/trace /healthz /debug/pprof)", mln.Addr())
		go func() {
			srv := &http.Server{Handler: obsv.Handler(a.srv.Observer(), a.health)}
			if err := srv.Serve(mln); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("introspection server: %v", err)
			}
		}()
	}

	// Serve until interrupted. Waiting on a signal (rather than blocking
	// forever) lets the deferred profile writers and server shutdown run, so
	// -cpuprofile/-memprofile produce complete files in serve mode. The
	// handler is in place before the first connection is accepted.
	sig := make(chan os.Signal, 1)
	if !*demo {
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	}

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go a.serveConn(conn)
		}
	}()

	if !*demo {
		// In-flight requests finish and are answered first, so their journal
		// records end completed rather than failed.
		<-sig
		log.Printf("signal received; shutting down")
		a.drainReplies(ln)
		printSummary(a.srv)
		return
	}

	if err := runDemoClient(ln.Addr().String(), *vocab); err != nil {
		log.Fatal(err)
	}
	// Graceful drain: let in-flight requests finish before reporting.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.srv.Drain(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	printSummary(a.srv)
}

// printSummary prints the server's Stats view and the paper's
// queuing/computation latency split: the -demo report and the serve-mode
// shutdown summary. Per-type cells and occupancy buckets are on /metrics.
func printSummary(srv *server.Server) {
	st := srv.Stats()
	fmt.Printf("requests: %s\n", st.Outcomes)
	fmt.Printf("executed: %d tasks, %d cells; tasks by batch-size bucket %v\n",
		st.TasksRun, st.CellsRun, st.BatchSizes)
	_, q := srv.Metrics().Queuing.Query()
	_, c := srv.Metrics().Computation.Query()
	fmt.Printf("latency split: queuing p50=%v p90=%v p99=%v | computation p50=%v p90=%v p99=%v\n",
		q[0], q[1], q[2], c[0], c[1], c[2])
	fmt.Printf("dispatch: %d rounds, p50 %v, p99 %v\n",
		st.DispatchRounds, st.DispatchP50, st.DispatchP99)
	fmt.Printf("hot path: %v/cell, %.1f process allocs/task\n",
		st.NsPerCell, st.ProcessAllocsPerTask)
}

// nonNegative rejects a negative duration flag value: 0 already means off,
// so a negative one is a mistake, not another way to say it.
func nonNegative(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("%v is negative (want 0 for off, or a positive duration)", d)
	}
	return nil
}

// atLeast rejects an integer flag value below the smallest one the server
// can be built with.
func atLeast(v, least int) error {
	if v < least {
		return fmt.Errorf("%d is below the minimum %d", v, least)
	}
	return nil
}

// fatalFlagValue rejects an invalid flag value with a structured error
// plus the flag's own usage text as a hint, and exits with the flag
// package's conventional status 2 — never silently defaulting.
func fatalFlagValue(name string, err error) {
	fmt.Fprintf(os.Stderr, "batchmaker: invalid -%s value: %v\n", name, err)
	if f := flag.Lookup(name); f != nil {
		fmt.Fprintf(os.Stderr, "usage of -%s: %s (default %q)\n", name, f.Usage, f.DefValue)
	}
	os.Exit(2)
}

// writeTraceOut assembles the server's span rings into a Chrome/Perfetto
// trace-event JSON file — open it at https://ui.perfetto.dev.
func writeTraceOut(path string, srv *server.Server) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("trace-out: %v", err)
		return
	}
	defer f.Close()
	if err := srv.Observer().WriteTrace(f, obsv.TraceOptions{}); err != nil {
		log.Printf("trace-out: %v", err)
		return
	}
	log.Printf("trace written to %s (load in https://ui.perfetto.dev)", path)
}

// writeMemProfile captures a heap profile after a forced GC, so the profile
// reflects live steady-state memory (arenas, pools) rather than garbage.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("memprofile: %v", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Printf("memprofile: %v", err)
	}
}

// runDemoClient fires concurrent translation requests at the server.
func runDemoClient(addr string, vocab int) error {
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				errs[c] = err
				return
			}
			defer conn.Close()
			enc := json.NewEncoder(conn)
			dec := json.NewDecoder(conn)
			rng := tensor.NewRNG(uint64(c + 1))
			for i := 0; i < 4; i++ {
				ids := make([]int, 2+rng.Intn(8))
				for j := range ids {
					ids[j] = 2 + rng.Intn(vocab-2)
				}
				if err := enc.Encode(apiRequest{IDs: ids}); err != nil {
					errs[c] = err
					return
				}
				var resp apiResponse
				if err := dec.Decode(&resp); err != nil {
					errs[c] = err
					return
				}
				if resp.Error != "" {
					errs[c] = fmt.Errorf("server error: %s", resp.Error)
					return
				}
				fmt.Printf("client %d: src %v -> out %v\n", c, ids, resp.Words)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	_ = os.Stdout.Sync()
	return nil
}

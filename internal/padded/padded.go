// Package padded is a live implementation of the graph-batching baseline the
// paper compares against (§2.3): chain requests are grouped into buckets by
// length, padded to the longest request in the batch, and executed as whole
// unfolded graphs; every request in a batch completes only when the whole
// padded graph finishes. It exists so the baseline semantics can be
// exercised with real computation (tests verify result-equality with the
// cellular server in internal/server while the execution pattern differs).
//
// Padding cannot batch non-chain requests, so Server only accepts LSTM
// chains — exactly the limitation §2.3 identifies.
package padded

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// Server is the padding+bucketing baseline server.
type Server struct {
	cell *rnn.LSTMCell
	cfg  Config

	mu      sync.Mutex
	cond    *sync.Cond
	buckets [][]*request
	rr      int
	stopped bool
	wg      sync.WaitGroup

	// stats
	batches      int
	paddedSteps  int
	usefulCells  int
	requestsDone int
}

// Config configures the baseline server.
type Config struct {
	Cell *rnn.LSTMCell
	// BucketWidth groups lengths (i*w, (i+1)*w] per bucket (default 10).
	BucketWidth int
	// MaxBatch bounds requests per padded batch.
	MaxBatch int
	// MaxLen bounds accepted request length.
	MaxLen int
	// Workers is the number of executor goroutines (GPUs).
	Workers int
}

// ErrStopped is returned for requests submitted to, or still queued in, a
// stopped server.
var ErrStopped = errors.New("padded: stopped")

type request struct {
	xs   *tensor.Tensor // [len, in]
	h    *tensor.Tensor // result
	err  error
	done chan struct{}
}

// New builds and starts the baseline server.
func New(cfg Config) (*Server, error) {
	if cfg.Cell == nil {
		return nil, fmt.Errorf("padded: nil cell")
	}
	if cfg.Workers <= 0 || cfg.MaxBatch <= 0 {
		return nil, fmt.Errorf("padded: Workers and MaxBatch must be positive")
	}
	if cfg.BucketWidth <= 0 {
		cfg.BucketWidth = 10
	}
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 330
	}
	p := &Server{
		cell:    cfg.Cell,
		cfg:     cfg,
		buckets: make([][]*request, (cfg.MaxLen+cfg.BucketWidth-1)/cfg.BucketWidth),
	}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < cfg.Workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p, nil
}

// Stop shuts the server down, failing queued requests with ErrStopped.
func (p *Server) Stop() {
	p.mu.Lock()
	if !p.stopped {
		p.stopped = true
		for _, q := range p.buckets {
			for _, r := range q {
				r.err = ErrStopped
				close(r.done)
			}
		}
		for i := range p.buckets {
			p.buckets[i] = nil
		}
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Submit enqueues a chain request (xs is [len, in]) and blocks for the
// final hidden state.
func (p *Server) Submit(ctx context.Context, xs *tensor.Tensor) (*tensor.Tensor, error) {
	if xs.Rank() != 2 || xs.Dim(1) != p.cell.InDim() {
		return nil, fmt.Errorf("padded: request must be [len, %d], got %v", p.cell.InDim(), xs.Shape())
	}
	n := xs.Dim(0)
	if n == 0 || n > p.cfg.MaxLen {
		return nil, fmt.Errorf("padded: length %d out of (0, %d]", n, p.cfg.MaxLen)
	}
	req := &request{xs: xs, done: make(chan struct{})}
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return nil, ErrStopped
	}
	b := (n - 1) / p.cfg.BucketWidth
	p.buckets[b] = append(p.buckets[b], req)
	p.cond.Broadcast()
	p.mu.Unlock()

	select {
	case <-req.done:
		return req.h, req.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// worker pulls one bucket batch at a time under round-robin and executes
// the padded graph.
func (p *Server) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		var batch []*request
		for {
			if p.stopped {
				p.mu.Unlock()
				return
			}
			batch = p.takeBatch()
			if batch != nil {
				break
			}
			p.cond.Wait()
		}
		p.mu.Unlock()
		p.execBatch(batch)
	}
}

// takeBatch pops up to MaxBatch requests from the next non-empty bucket.
// Caller holds p.mu.
func (p *Server) takeBatch() []*request {
	n := len(p.buckets)
	for i := 0; i < n; i++ {
		idx := (p.rr + i) % n
		q := p.buckets[idx]
		if len(q) == 0 {
			continue
		}
		take := len(q)
		if take > p.cfg.MaxBatch {
			take = p.cfg.MaxBatch
		}
		batch := q[:take]
		p.buckets[idx] = append([]*request(nil), q[take:]...)
		p.rr = (idx + 1) % n
		return batch
	}
	return nil
}

// execBatch runs the padded unfolded graph: every timestep executes the
// whole batch (zero inputs past a request's own length), each request's
// state is captured at its own final step, and everyone completes together.
func (p *Server) execBatch(batch []*request) {
	bs := len(batch)
	padded := 0
	useful := 0
	for _, r := range batch {
		if r.xs.Dim(0) > padded {
			padded = r.xs.Dim(0)
		}
		useful += r.xs.Dim(0)
	}
	in := p.cell.InDim()
	hidden := p.cell.Hidden()
	// Each step reads one h/c pair and writes the other: StepInto's outputs
	// must not alias its inputs.
	cur := map[string]*tensor.Tensor{"h": tensor.New(bs, hidden), "c": tensor.New(bs, hidden)}
	next := map[string]*tensor.Tensor{"h": tensor.New(bs, hidden), "c": tensor.New(bs, hidden)}
	arena := tensor.NewArena(0)
	results := make([]*tensor.Tensor, bs)
	var failErr error
	for t := 0; t < padded && failErr == nil; t++ {
		x := tensor.New(bs, in)
		for i, r := range batch {
			if t < r.xs.Dim(0) {
				copy(x.RowSlice(i), r.xs.RowSlice(t))
			}
		}
		cur["x"] = x
		arena.Reset()
		if err := p.cell.StepInto(cur, next, arena); err != nil {
			failErr = err
			break
		}
		cur["h"], cur["c"], next["h"], next["c"] = next["h"], next["c"], cur["h"], cur["c"]
		for i, r := range batch {
			if r.xs.Dim(0) == t+1 {
				results[i] = tensor.SliceRows(cur["h"], i, i+1)
			}
		}
	}
	p.mu.Lock()
	p.batches++
	p.paddedSteps += padded * bs
	p.usefulCells += useful
	p.requestsDone += bs
	p.mu.Unlock()
	// Graph batching: everyone returns together, only now.
	for i, r := range batch {
		if failErr != nil {
			r.err = failErr
		} else {
			r.h = results[i]
		}
		close(r.done)
	}
}

// Stats reports execution counters, including the padding waste.
type Stats struct {
	Batches      int
	RequestsDone int
	// PaddedCells is the number of cell steps executed including padding;
	// UsefulCells counts only the requests' true lengths.
	PaddedCells int
	UsefulCells int
}

// Waste returns the fraction of executed cells that were padding.
func (s Stats) Waste() float64 {
	if s.PaddedCells == 0 {
		return 0
	}
	return 1 - float64(s.UsefulCells)/float64(s.PaddedCells)
}

// Stats returns a snapshot of the counters.
func (p *Server) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Batches:      p.batches,
		RequestsDone: p.requestsDone,
		PaddedCells:  p.paddedSteps,
		UsefulCells:  p.usefulCells,
	}
}

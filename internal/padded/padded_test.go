package padded

import (
	"context"
	"sync"
	"testing"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/leakcheck"
	"batchmaker/internal/rnn"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

// TestMain fails the package if its tests leave goroutines running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

const (
	tHidden = 12
	tEmbed  = 8
)

func newLSTM() *rnn.LSTMCell {
	return rnn.NewLSTMCell("lstm", tEmbed, tHidden, tensor.NewRNG(12345))
}

func chainInput(seed uint64, n int) *tensor.Tensor {
	return tensor.RandUniform(tensor.NewRNG(seed), 1, n, tEmbed)
}

func testConfig(lstm *rnn.LSTMCell, workers int) Config {
	return Config{Cell: lstm, BucketWidth: 4, MaxBatch: 8, MaxLen: 64, Workers: workers}
}

func TestPaddedServerMatchesSequential(t *testing.T) {
	lstm := newLSTM()
	p, err := New(testConfig(lstm, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	for i, n := range []int{1, 3, 7, 12} {
		xs := chainInput(uint64(i+1), n)
		got, err := p.Submit(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := cellgraph.UnfoldChain(lstm, xs)
		want, err := cellgraph.ExecuteSequential(g)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want["h"]) {
			t.Fatalf("len %d: padded result differs from sequential", n)
		}
	}
}

func TestPaddedServerAgreesWithCellularServer(t *testing.T) {
	// The two live systems implement the same model function; only their
	// batching differs. Run the same mixed-length burst through both.
	lstm := newLSTM()
	p, err := New(testConfig(lstm, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	srv, err := server.New(server.Config{
		Workers:          2,
		MaxTasksToSubmit: 3,
		Cells:            []server.CellSpec{{Cell: lstm, MaxBatch: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	lengths := []int{2, 5, 5, 9, 3, 7, 7, 1}
	var wg sync.WaitGroup
	paddedOut := make([]*tensor.Tensor, len(lengths))
	cellOut := make([]*tensor.Tensor, len(lengths))
	errs := make([]error, 2*len(lengths))
	for i, n := range lengths {
		wg.Add(2)
		go func(i, n int) {
			defer wg.Done()
			paddedOut[i], errs[2*i] = p.Submit(context.Background(), chainInput(uint64(n), n))
		}(i, n)
		go func(i, n int) {
			defer wg.Done()
			g, err := cellgraph.UnfoldChain(lstm, chainInput(uint64(n), n))
			if err != nil {
				errs[2*i+1] = err
				return
			}
			var out map[string]*tensor.Tensor
			out, errs[2*i+1] = srv.Submit(context.Background(), g)
			if errs[2*i+1] == nil {
				cellOut[i] = out["h"]
			}
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := range lengths {
		if !paddedOut[i].Equal(cellOut[i]) {
			t.Fatalf("request %d: padded and cellular servers disagree", i)
		}
	}
}

func TestPaddedServerWasteAccounting(t *testing.T) {
	p, err := New(Config{Cell: newLSTM(), BucketWidth: 10, MaxBatch: 8, MaxLen: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	// Two requests in one bucket: lengths 2 and 10 → the batch runs 10
	// steps for both (20 cells) but only 12 are useful.
	var wg sync.WaitGroup
	for _, n := range []int{2, 10} {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			if _, err := p.Submit(context.Background(), chainInput(uint64(n), n)); err != nil {
				t.Error(err)
			}
		}(n)
	}
	wg.Wait()
	st := p.Stats()
	if st.RequestsDone != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.UsefulCells != 12 {
		t.Fatalf("useful cells = %d, want 12", st.UsefulCells)
	}
	// Depending on scheduling the two requests may have run as one padded
	// batch (20 cells, 40%% waste) or separately (12 cells, no waste).
	if st.Batches == 1 {
		if st.PaddedCells != 20 || st.Waste() < 0.39 || st.Waste() > 0.41 {
			t.Fatalf("padded accounting = %+v waste=%v", st, st.Waste())
		}
	} else if st.PaddedCells < st.UsefulCells {
		t.Fatalf("padded < useful: %+v", st)
	}
}

func TestPaddedServerValidation(t *testing.T) {
	lstm := newLSTM()
	if _, err := New(Config{Cell: nil, MaxBatch: 1, Workers: 1}); err == nil {
		t.Fatal("want nil-cell error")
	}
	if _, err := New(Config{Cell: lstm, MaxBatch: 0, Workers: 1}); err == nil {
		t.Fatal("want MaxBatch error")
	}
	p, err := New(testConfig(lstm, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if _, err := p.Submit(context.Background(), tensor.New(0, tEmbed)); err == nil {
		t.Fatal("want empty error")
	}
	if _, err := p.Submit(context.Background(), tensor.New(1000, tEmbed)); err == nil {
		t.Fatal("want over-length error")
	}
	if _, err := p.Submit(context.Background(), tensor.New(3, tEmbed+1)); err == nil {
		t.Fatal("want width error")
	}
}

func TestPaddedServerStop(t *testing.T) {
	lstm := newLSTM()
	p, err := New(testConfig(lstm, 1))
	if err != nil {
		t.Fatal(err)
	}
	p.Stop()
	if _, err := p.Submit(context.Background(), chainInput(1, 2)); err != ErrStopped {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	p.Stop() // idempotent
}

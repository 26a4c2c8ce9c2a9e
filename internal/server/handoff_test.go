package server

import (
	"context"
	"testing"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// BenchmarkChainHandoff measures the hand-off layer without the benchmark
// harness: a 2-worker server runs one 45-cell LSTM chain at a time, each
// submitted after the previous one resolved, so every cell pays the
// dispatch → execute → retire round trip with nothing to overlap it.
// us/cell is wall time per cell beyond the workers' own gather + step time
// (the worker_busy_seconds cells behind Stats.NsPerCell) — the in-package
// counterpart of the benchmark's server.overhead_us_per_cell;
// step_us/cell is that worker time.
func BenchmarkChainHandoff(b *testing.B) {
	// The cell has seq2seq_open's encoder LSTM shape (embed 64, hidden 128),
	// so a step is long enough for an idle goroutine to park between two
	// hand-offs, as it does in serving.
	const cells, embed, hidden = 45, 64, 128
	rng := tensor.NewRNG(45)
	lstm := rnn.NewLSTMCell("lstm", embed, hidden, rng)
	srv, err := New(Config{Workers: 2, Cells: []CellSpec{{Cell: lstm, MaxBatch: 8}}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	graphs := make([]*cellgraph.Graph, 8)
	for i := range graphs {
		if graphs[i], err = cellgraph.UnfoldChain(lstm, tensor.RandUniform(rng, 1, cells, embed)); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	submit := func(g *cellgraph.Graph) {
		if _, err := srv.Submit(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the arenas, per-type caches and pools first.
	for _, g := range graphs {
		submit(g)
	}
	busy := func() (ns int64) {
		for _, wm := range srv.obs.sm.Workers {
			ns += wm.Busy.Value()
		}
		return ns
	}
	busy0, cells0 := busy(), srv.Stats().CellsRun
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		submit(graphs[i%len(graphs)])
	}
	wall := time.Since(start)
	b.StopTimer()
	n := float64(srv.Stats().CellsRun - cells0)
	if n != float64(b.N*cells) {
		b.Fatalf("ran %.0f cells, want %d", n, b.N*cells)
	}
	step := float64(busy()-busy0) / n
	b.ReportMetric((float64(wall.Nanoseconds())/n-step)/1e3, "us/cell")
	b.ReportMetric(step/1e3, "step_us/cell")
}

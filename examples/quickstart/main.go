// Quickstart: build an LSTM cell, start a BatchMaker server, and run a few
// variable-length requests through cellular batching. Demonstrates the two
// things a user must provide (§4.1): a cell definition and an unfolding of
// each request into a cell graph — and verifies that batched serving matches
// unbatched execution exactly.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/graph"
	"batchmaker/internal/rnn"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

func main() {
	// Realistic widths so a cell step costs real compute (~100µs+), like a
	// GPU kernel; with toy widths the requests finish too fast to overlap.
	const (
		embed  = 64
		hidden = 256
	)
	rng := tensor.NewRNG(42)
	lstm := rnn.NewLSTMCell("lstm", embed, hidden, rng)

	// The cell's dataflow graph is exchangeable as JSON — the interface the
	// paper's users drive from their training framework exports.
	def, err := lstm.Def().ToJSON()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cell %q: %d operators, definition is %d bytes of JSON\n",
		lstm.Name(), len(lstm.Def().Nodes), len(def))

	srv, err := server.New(server.Config{
		Workers: 2,
		Cells:   []server.CellSpec{{Cell: lstm, MaxBatch: 16}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	// Enqueue a burst of requests of different lengths; each is unfolded
	// into a chain cell graph and they batch against each other cell by
	// cell. SubmitAsync lets the whole burst register before the workers
	// drain it, so cross-request batching is visible even on one core.
	lengths := []int{3, 7, 12, 5, 9, 14, 6, 11, 4, 8, 10, 13}
	handles := make([]*server.Handle, len(lengths))
	for i, n := range lengths {
		xs := tensor.RandUniform(tensor.NewRNG(uint64(i+1)), 1, n, embed)
		g, err := cellgraph.UnfoldChain(lstm, xs)
		if err != nil {
			log.Fatal(err)
		}
		if handles[i], err = srv.SubmitAsync(g); err != nil {
			log.Fatal(err)
		}
	}
	results := make([]*tensor.Tensor, len(lengths))
	for i, h := range handles {
		<-h.Done()
		out, err := h.Result()
		if err != nil {
			log.Fatal(err)
		}
		results[i] = out["h"]
	}

	for i, n := range lengths {
		// Cross-check against unbatched sequential execution.
		xs := tensor.RandUniform(tensor.NewRNG(uint64(i+1)), 1, n, embed)
		g, _ := cellgraph.UnfoldChain(lstm, xs)
		want, err := cellgraph.ExecuteSequential(g)
		if err != nil {
			log.Fatal(err)
		}
		match := results[i].AllClose(want["h"], 1e-5)
		fmt.Printf("request %d (len %2d): |h| = %.4f, matches sequential: %v\n",
			i, n, tensor.Sum(tensor.Mul(results[i], results[i])), match)
		if !match {
			log.Fatal("batching transparency violated")
		}
	}
	st := srv.Stats()
	fmt.Printf("server ran %d tasks covering %d cells (mean batch %.2f)\n",
		st.TasksRun, st.CellsRun, float64(st.CellsRun)/float64(st.TasksRun))

	// The §6 initialization flow: persist the cell (definition + trained
	// weights) to a file and reload it, exactly as a deployment would load
	// a model exported from a training run. The reloaded cell is executed
	// through the reference interpreter and must agree with the live cell.
	path := filepath.Join(os.TempDir(), "batchmaker-quickstart.cell")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := graph.SaveCell(f, lstm.Def(), lstm.Weights()); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)

	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	loadedDef, loadedWeights, err := graph.LoadCell(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	ex, err := graph.NewExecutor(loadedDef, loadedWeights)
	if err != nil {
		log.Fatal(err)
	}
	probe := map[string]*tensor.Tensor{
		"x": tensor.RandUniform(tensor.NewRNG(7), 1, 1, embed),
		"h": tensor.New(1, hidden),
		"c": tensor.New(1, hidden),
	}
	want, err := rnn.Step(lstm, probe)
	if err != nil {
		log.Fatal(err)
	}
	got, err := ex.Run(probe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cell persisted to %s and reloaded; interpreter matches live cell: %v\n",
		path, got["h_new"].AllClose(want["h"], 1e-5))
}

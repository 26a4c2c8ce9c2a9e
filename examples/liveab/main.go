// Liveab runs the same burst of variable-length LSTM requests through two
// live serving systems with real computation — BatchMaker's cellular
// batching and the padding+bucketing graph-batching baseline — and reports
// per-request latency, wasted work, and result agreement. It is the live
// (non-simulated) counterpart of the paper's Figure 7 comparison, at laptop
// scale.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/padded"
	"batchmaker/internal/rnn"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

const (
	embed  = 64
	hidden = 256
	nReqs  = 24
)

func lengths() []int {
	// A WMT-flavoured mix: mostly short, a few long.
	return []int{
		4, 24, 9, 13, 30, 7, 21, 5, 16, 11, 3, 27,
		8, 19, 6, 35, 14, 10, 23, 4, 40, 12, 17, 9,
	}
}

func percentile(ds []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func main() {
	lstm := rnn.NewLSTMCell("lstm", embed, hidden, tensor.NewRNG(2018))

	cellular, err := server.New(server.Config{
		Workers: 2,
		Cells:   []server.CellSpec{{Cell: lstm, MaxBatch: 32}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cellular.Stop()

	baseline, err := padded.New(padded.Config{
		Cell: lstm, BucketWidth: 10, MaxBatch: 32, MaxLen: 64, Workers: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer baseline.Stop()

	ls := lengths()
	inputs := make([]*tensor.Tensor, nReqs)
	for i, n := range ls {
		inputs[i] = tensor.RandUniform(tensor.NewRNG(uint64(i+1)), 1, n, embed)
	}

	// Cellular burst (async enqueue, then wait per request).
	cellLat := make([]time.Duration, nReqs)
	cellOut := make([]*tensor.Tensor, nReqs)
	start := time.Now()
	handles := make([]*server.Handle, nReqs)
	for i := range inputs {
		g, err := cellgraph.UnfoldChain(lstm, inputs[i])
		if err != nil {
			log.Fatal(err)
		}
		if handles[i], err = cellular.SubmitAsync(g); err != nil {
			log.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *server.Handle) {
			defer wg.Done()
			<-h.Done()
			cellLat[i] = time.Since(start)
			out, err := h.Result()
			if err != nil {
				log.Fatal(err)
			}
			cellOut[i] = out["h"]
		}(i, h)
	}
	wg.Wait()
	cellWall := time.Since(start)

	// Padded burst (concurrent blocking submits — the baseline's API).
	padLat := make([]time.Duration, nReqs)
	padOut := make([]*tensor.Tensor, nReqs)
	start = time.Now()
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := baseline.Submit(context.Background(), inputs[i])
			if err != nil {
				log.Fatal(err)
			}
			padLat[i] = time.Since(start)
			padOut[i] = out
		}(i)
	}
	wg.Wait()
	padWall := time.Since(start)

	// Results must agree bit for bit (both compute the same model with the
	// same kernels); only the schedules differ.
	for i := range inputs {
		if !cellOut[i].Equal(padOut[i]) {
			log.Fatalf("request %d: servers disagree", i)
		}
	}

	cs := cellular.Stats()
	ps := baseline.Stats()
	fmt.Printf("%d requests, lengths 3-40 (%d total cells), 2 workers each\n\n", nReqs, totalCells(ls))
	fmt.Printf("%-18s %12s %12s %12s\n", "", "p50 latency", "p90 latency", "makespan")
	fmt.Printf("%-18s %12v %12v %12v\n", "cellular", percentile(cellLat, 0.5).Round(time.Millisecond), percentile(cellLat, 0.9).Round(time.Millisecond), cellWall.Round(time.Millisecond))
	fmt.Printf("%-18s %12v %12v %12v\n\n", "padded/bucketed", percentile(padLat, 0.5).Round(time.Millisecond), percentile(padLat, 0.9).Round(time.Millisecond), padWall.Round(time.Millisecond))
	fmt.Printf("cellular:  %d tasks, %d cells executed (mean batch %.1f), zero padding\n",
		cs.TasksRun, cs.CellsRun, float64(cs.CellsRun)/float64(cs.TasksRun))
	fmt.Printf("padded:    %d batches, %d cells executed for %d useful (%.0f%% padding waste)\n",
		ps.Batches, ps.PaddedCells, ps.UsefulCells, 100*ps.Waste())
	fmt.Println("\nresults agree across both servers; only the batching schedule differs")
}

func totalCells(ls []int) int {
	s := 0
	for _, n := range ls {
		s += n
	}
	return s
}

// Command lstmgen is a byte-level text generator served by BatchMaker. It
// demonstrates the user-defined unfolding interface (§4.1) with a custom
// cell graph built directly in client code: a decoder-only LSTM chain that
// first consumes the prompt bytes (teacher-forced) and then feeds each
// emitted byte back into the next step (feed-previous), exactly like the
// decode phase of Figure 12.
//
// The weights are random (there is no training in this repository), so the
// output is babble — the point is the serving path: several prompts decode
// concurrently and their per-step cells batch together.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/rnn"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

// unfoldGenerate builds the decoder-only cell graph: len(prompt) warmup
// steps with literal byte inputs, then n feed-previous steps whose emitted
// words are the request results.
func unfoldGenerate(dec *rnn.DecoderCell, prompt []byte, n int) (*cellgraph.Graph, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("empty prompt")
	}
	if n <= 0 {
		return nil, fmt.Errorf("nothing to generate")
	}
	// The decoder takes ids, h, c, in that order; outputs go by index.
	h, c, word := cellgraph.OutputIndex(dec, "h"), cellgraph.OutputIndex(dec, "c"), cellgraph.OutputIndex(dec, "word")
	steps := len(prompt) + n
	g := cellgraph.NewGraph(steps, 3*steps, steps-1, len(prompt)+2, len(prompt)+2*dec.Hidden())
	zero := cellgraph.Lit(tensor.New(1, dec.Hidden()))
	prev := cellgraph.NoNode
	for t, b := range prompt {
		ids := cellgraph.Lit(tensor.FromSlice([]float32{float32(b)}, 1, 1))
		if t == 0 {
			prev = g.Add(dec, ids, zero, zero)
		} else {
			prev = g.Add(dec, ids, cellgraph.Ref(prev, h), cellgraph.Ref(prev, c))
		}
	}
	for t := 0; t < n; t++ {
		prev = g.Add(dec, cellgraph.Ref(prev, word), cellgraph.Ref(prev, h), cellgraph.Ref(prev, c))
		g.Results = append(g.Results, cellgraph.OutputSpec{
			Name: fmt.Sprintf("byte%d", t), Node: prev, Out: word,
		})
	}
	return g, nil
}

func main() {
	var (
		n       = flag.Int("n", 48, "bytes to generate per prompt")
		hidden  = flag.Int("hidden", 192, "hidden width")
		workers = flag.Int("workers", 2, "worker count")
		seed    = flag.Uint64("seed", 99, "weight seed")
	)
	flag.Parse()
	prompts := flag.Args()
	if len(prompts) == 0 {
		prompts = []string{"the quick brown fox", "pack my box", "lorem ipsum"}
	}

	rng := tensor.NewRNG(*seed)
	dec := rnn.NewDecoderCell("bytelm", 256, 16, *hidden, rng)
	srv, err := server.New(server.Config{
		Workers: *workers,
		Cells:   []server.CellSpec{{Cell: dec, MaxBatch: 32}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	handles := make([]*server.Handle, len(prompts))
	for i, p := range prompts {
		g, err := unfoldGenerate(dec, []byte(p), *n)
		if err != nil {
			log.Fatal(err)
		}
		if handles[i], err = srv.SubmitAsync(g); err != nil {
			log.Fatal(err)
		}
	}
	outs := make([]string, len(prompts))
	for i, h := range handles {
		<-h.Done()
		res, err := h.Result()
		if err != nil {
			log.Fatal(err)
		}
		var b strings.Builder
		for t := 0; t < *n; t++ {
			c := byte(res[fmt.Sprintf("byte%d", t)].At(0, 0))
			if c < 32 || c > 126 {
				c = '.'
			}
			b.WriteByte(c)
		}
		outs[i] = b.String()
	}
	for i, p := range prompts {
		fmt.Printf("%q -> %q\n", p, outs[i])
	}
	st := srv.Stats()
	fmt.Printf("stats: %d tasks, %d cells, batch histogram %v\n", st.TasksRun, st.CellsRun, st.BatchSizes)
}

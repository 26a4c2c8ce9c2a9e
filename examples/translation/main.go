// Translation: the paper's Seq2Seq application (Figure 12). An encoder cell
// consumes the source sentence; a feed-previous decoder cell emits target
// words until the requested decode length. Encoder and decoder are distinct
// cell types with their own max batch sizes, and the scheduler gives decoder
// cells priority (§4.3), so a request can leave its encoding phase and start
// decoding while other requests are still encoding.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/decode"
	"batchmaker/internal/rnn"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

// A toy vocabulary; ids 0 and 1 are the reserved <go>/<eos> symbols.
var vocab = []string{"<go>", "<eos>", "the", "cat", "dog", "sat", "ran", "on", "mat", "grass", "a", "big", "small", "happy"}

func wordIDs(sentence string) []int {
	var ids []int
	for _, w := range strings.Fields(sentence) {
		found := -1
		for i, v := range vocab {
			if v == w {
				found = i
				break
			}
		}
		if found < 0 {
			log.Fatalf("word %q not in vocabulary", w)
		}
		ids = append(ids, found)
	}
	return ids
}

func main() {
	const (
		embed  = 64
		hidden = 256
	)
	rng := tensor.NewRNG(7)
	enc := rnn.NewEncoderCell("encoder", len(vocab), embed, hidden, rng)
	dec := rnn.NewDecoderCell("decoder", len(vocab), embed, hidden, rng)

	srv, err := server.New(server.Config{
		Workers: 2,
		Cells: []server.CellSpec{
			// Different max batch per phase, like the paper's
			// BatchMaker-512,256 configuration; decoders run first.
			{Cell: enc, MaxBatch: 32, Priority: 0},
			{Cell: dec, MaxBatch: 16, Priority: 1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	sources := []string{
		"the cat sat on the mat",
		"a big dog ran on the grass",
		"the small happy cat ran",
		"a dog sat",
	}
	// Enqueue the whole burst, then collect: the requests' encoder cells
	// batch together, and each request starts decoding the moment its own
	// encoding finishes.
	handles := make([]*server.Handle, len(sources))
	decodeLens := make([]int, len(sources))
	for i, src := range sources {
		ids := wordIDs(src)
		decodeLens[i] = len(ids)
		g, err := cellgraph.UnfoldSeq2Seq(enc, dec, ids, len(ids))
		if err != nil {
			log.Fatal(err)
		}
		if handles[i], err = srv.SubmitAsync(g); err != nil {
			log.Fatal(err)
		}
	}
	outputs := make([][]string, len(sources))
	for i, h := range handles {
		<-h.Done()
		res, err := h.Result()
		if err != nil {
			log.Fatal(err)
		}
		var emitted []string
		for t := 0; t < decodeLens[i]; t++ {
			w := int(res[fmt.Sprintf("word%d", t)].At(0, 0))
			emitted = append(emitted, vocab[w])
			if w == rnn.TokenEOS {
				break
			}
		}
		outputs[i] = emitted
	}

	for i, src := range sources {
		fmt.Printf("src: %-30s -> out: %s\n", src, strings.Join(outputs[i], " "))
	}
	// Beam search over the same model: the hypotheses' decoder cells batch
	// with each other step by step (beam search is "just more cells" to
	// cellular batching). Width 1 reproduces the greedy decode above.
	hyps, err := decode.Beam(context.Background(), srv, decode.BeamSpec{
		Encoder:    enc,
		Decoder:    dec,
		SourceIDs:  wordIDs(sources[0]),
		Width:      3,
		MaxSteps:   len(wordIDs(sources[0])) + 2,
		EOS:        rnn.TokenEOS,
		LengthNorm: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("beam search (width 3) for %q:\n", sources[0])
	for i, h := range hyps {
		var ws []string
		for _, w := range h.Words {
			ws = append(ws, vocab[w])
		}
		fmt.Printf("  #%d logp=%7.3f  %s\n", i+1, h.LogProb, strings.Join(ws, " "))
	}

	st := srv.Stats()
	fmt.Printf("server: %d tasks, %d cells, batch-size histogram %v\n",
		st.TasksRun, st.CellsRun, st.BatchSizes)
	fmt.Println("(the model is untrained; the emitted words demonstrate the feed-previous decode loop, not translation quality)")
}

package server

import (
	"context"
	"fmt"
	"math"
	"sort"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// BeamSpec describes a beam-search decoding request over a Seq2Seq model:
// encode the source, then maintain Width hypotheses, expanding each by one
// decoder cell per step. All live hypotheses are submitted together each
// step, so they batch with each other and with every other request in the
// server — beam search is "just more cells" under cellular batching.
//
// This generalizes the paper's greedy (argmax) decoding; the paper's
// evaluation uses Width=1 semantics, which BeamSearch reproduces exactly.
type BeamSpec struct {
	Encoder *rnn.EncoderCell
	Decoder *rnn.DecoderCell
	// SourceIDs is the source sentence.
	SourceIDs []int
	// Width is the beam width (>= 1).
	Width int
	// MaxSteps bounds decoding.
	MaxSteps int
	// EOS terminates a hypothesis when emitted (rnn.TokenEOS typically).
	EOS int
	// LengthNorm, when true, ranks finished hypotheses by per-token mean
	// log-probability instead of the sum (the standard fix for beam
	// search's short-output bias).
	LengthNorm bool
}

// Hypothesis is one finished (or forcibly terminated) beam entry.
type Hypothesis struct {
	Words   []int
	LogProb float64
}

// Score returns the ranking score under the spec's normalization.
func (h Hypothesis) score(lengthNorm bool) float64 {
	if !lengthNorm || len(h.Words) == 0 {
		return h.LogProb
	}
	return h.LogProb / float64(len(h.Words))
}

type beamState struct {
	words   []int
	logProb float64
	h, c    *tensor.Tensor
	nextID  int // word fed into the next decoder step
}

// BeamSearch decodes the source with beam search and returns hypotheses
// sorted best-first.
func (s *Server) BeamSearch(ctx context.Context, spec BeamSpec) ([]Hypothesis, error) {
	if spec.Encoder == nil || spec.Decoder == nil {
		return nil, fmt.Errorf("server: beam: nil cells")
	}
	if spec.Width < 1 {
		return nil, fmt.Errorf("server: beam: width must be >= 1, got %d", spec.Width)
	}
	if spec.MaxSteps < 1 {
		return nil, fmt.Errorf("server: beam: MaxSteps must be >= 1, got %d", spec.MaxSteps)
	}

	// Encode the source through the server (batches with everything else).
	prompt, err := cellgraph.UnfoldChainIDs(spec.Encoder, spec.SourceIDs)
	if err != nil {
		return nil, err
	}
	last := cellgraph.NodeID(len(spec.SourceIDs) - 1)
	prompt.Results = []cellgraph.OutputSpec{
		{Name: "h", Node: last, Out: cellgraph.OutputIndex(spec.Encoder, "h")},
		{Name: "c", Node: last, Out: cellgraph.OutputIndex(spec.Encoder, "c")},
	}
	// One decoder step per hypothesis per round: inputs ids, h, c; every
	// output the expansion reads is a result.
	stepResults := []cellgraph.OutputSpec{
		{Name: "h", Out: cellgraph.OutputIndex(spec.Decoder, "h")},
		{Name: "c", Out: cellgraph.OutputIndex(spec.Decoder, "c")},
		{Name: "logits", Out: cellgraph.OutputIndex(spec.Decoder, "logits")},
	}
	enc, err := s.Submit(ctx, prompt)
	if err != nil {
		return nil, err
	}

	live := []*beamState{{
		h: enc["h"], c: enc["c"], nextID: rnn.TokenGo,
	}}
	var finished []Hypothesis

	for step := 0; step < spec.MaxSteps && len(live) > 0; step++ {
		// One decoder cell per live hypothesis, submitted as a burst so
		// the scheduler batches them.
		handles := make([]*Handle, len(live))
		for i, b := range live {
			g := &cellgraph.Graph{Results: stepResults}
			g.Add(spec.Decoder,
				cellgraph.Lit(tensor.FromSlice([]float32{float32(b.nextID)}, 1, 1)),
				cellgraph.Lit(b.h), cellgraph.Lit(b.c))
			h, err := s.SubmitAsync(g)
			if err != nil {
				return nil, err
			}
			handles[i] = h
		}

		// Expand: each hypothesis contributes its Width best continuations;
		// keep the global top Width.
		type candidate struct {
			parent  *beamState
			word    int
			logProb float64
			h, c    *tensor.Tensor
		}
		var cands []candidate
		for i, hd := range handles {
			<-hd.Done()
			out, err := hd.Result()
			if err != nil {
				return nil, err
			}
			parent := live[i]
			logProbs := logSoftmaxRow(out["logits"])
			for _, w := range topK(logProbs, spec.Width) {
				cands = append(cands, candidate{
					parent:  parent,
					word:    w,
					logProb: parent.logProb + logProbs[w],
					h:       out["h"],
					c:       out["c"],
				})
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].logProb > cands[j].logProb })
		if len(cands) > spec.Width {
			cands = cands[:spec.Width]
		}
		live = live[:0]
		for _, c := range cands {
			words := append(append([]int(nil), c.parent.words...), c.word)
			if c.word == spec.EOS {
				finished = append(finished, Hypothesis{Words: words, LogProb: c.logProb})
				continue
			}
			live = append(live, &beamState{
				words: words, logProb: c.logProb,
				h: c.h, c: c.c, nextID: c.word,
			})
		}
	}
	// Terminate leftovers at the step bound.
	for _, b := range live {
		finished = append(finished, Hypothesis{Words: b.words, LogProb: b.logProb})
	}
	sort.SliceStable(finished, func(i, j int) bool {
		return finished[i].score(spec.LengthNorm) > finished[j].score(spec.LengthNorm)
	})
	if len(finished) > spec.Width {
		finished = finished[:spec.Width]
	}
	return finished, nil
}

// logSoftmaxRow converts a [1, V] logits tensor to per-word log
// probabilities.
func logSoftmaxRow(logits *tensor.Tensor) []float64 {
	row := logits.RowSlice(0)
	maxv := math.Inf(-1)
	for _, v := range row {
		if float64(v) > maxv {
			maxv = float64(v)
		}
	}
	var sum float64
	out := make([]float64, len(row))
	for i, v := range row {
		out[i] = float64(v) - maxv
		sum += math.Exp(out[i])
	}
	logZ := math.Log(sum)
	for i := range out {
		out[i] -= logZ
	}
	return out
}

// topK returns the indices of the k largest values (ties by lower index).
func topK(vals []float64, k int) []int {
	if k > len(vals) {
		k = len(vals)
	}
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	return idx[:k]
}

// Package decode runs dynamic decoding on top of the cellular engine. The
// paper's evaluation fixes the decode length up front (§7.4); deployed
// systems instead decode until <eos> or a length bound. Here every generated
// step is one more request to internal/server, so concurrent decodes batch
// with each other and with every other request of the same cell type.
package decode

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/rnn"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

// ErrBadSpec wraps every error Beam returns before it submits anything: a
// nil cell, a width or step bound below 1, or a source the encoder cannot
// unfold (empty, or an id outside the vocabulary).
var ErrBadSpec = errors.New("decode: bad spec")

// BeamSpec describes a beam-search decoding request over a Seq2Seq model:
// encode the source, then maintain Width hypotheses, expanding each by one
// decoder cell per step. All live hypotheses are submitted together each
// step, so they batch with each other and with every other request in the
// server — beam search is "just more cells" under cellular batching.
//
// Width 1 is greedy decoding: it emits exactly the feed-previous words of
// the paper's static decoder chain, stopping after the first EOS.
type BeamSpec struct {
	Encoder *rnn.EncoderCell
	Decoder *rnn.DecoderCell
	// SourceIDs is the source sentence.
	SourceIDs []int
	// Width is the beam width (>= 1).
	Width int
	// MaxSteps bounds decoding.
	MaxSteps int
	// EOS terminates a hypothesis when emitted (rnn.TokenEOS typically; a
	// negative value never fires).
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

// score returns the ranking score under the spec's normalization.
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

// Beam decodes the source with beam search through srv and returns
// hypotheses sorted best-first. ctx bounds the whole decode: every request
// Beam submits carries ctx's deadline, if it has one, so the server expires
// what is still running when it passes; when ctx ends otherwise, the step's
// outstanding requests are cancelled. Either way Beam returns ctx's error.
func Beam(ctx context.Context, srv *server.Server, spec BeamSpec) ([]Hypothesis, error) {
	if spec.Encoder == nil || spec.Decoder == nil {
		return nil, fmt.Errorf("%w: nil cells", ErrBadSpec)
	}
	if spec.Width < 1 {
		return nil, fmt.Errorf("%w: width must be >= 1, got %d", ErrBadSpec, spec.Width)
	}
	if spec.MaxSteps < 1 {
		return nil, fmt.Errorf("%w: MaxSteps must be >= 1, got %d", ErrBadSpec, spec.MaxSteps)
	}

	// Encode the source through the server (batches with everything else).
	prompt, err := cellgraph.UnfoldChainIDs(spec.Encoder, spec.SourceIDs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
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
	enc, err := srv.SubmitOpts(ctx, prompt, submitOpts(ctx))
	if err != nil {
		return nil, ctxErr(err)
	}

	live := []*beamState{{
		h: enc["h"], c: enc["c"], nextID: rnn.TokenGo,
	}}
	var finished []Hypothesis

	for step := 0; step < spec.MaxSteps && len(live) > 0; step++ {
		outs, err := expand(ctx, srv, spec.Decoder, stepResults, live)
		if err != nil {
			return nil, err
		}

		// Each hypothesis contributes its Width best continuations; keep
		// the global top Width.
		type candidate struct {
			parent  *beamState
			word    int
			logProb float64
			h, c    *tensor.Tensor
		}
		var cands []candidate
		for i, out := range outs {
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

// submitOpts carries ctx's deadline, if any, to the server.
func submitOpts(ctx context.Context) server.SubmitOpts {
	dl, _ := ctx.Deadline()
	return server.SubmitOpts{Deadline: dl}
}

// ctxErr reports a server expiry, which only ctx's deadline can cause, as
// ctx's own error: the server may expire a request before ctx's timer has
// fired.
func ctxErr(err error) error {
	if errors.Is(err, server.ErrExpired) {
		return context.DeadlineExceeded
	}
	return err
}

// expand runs one decoder step per live hypothesis, submitted as a burst so
// the scheduler batches them, and returns each step's outputs in order. If
// a submission fails or ctx ends first, every step still outstanding is
// ended: past ctx's deadline the server expires it, so expand waits for
// that; on any other cause expand cancels it.
func expand(ctx context.Context, srv *server.Server, dec *rnn.DecoderCell, results []cellgraph.OutputSpec, live []*beamState) ([]map[string]*tensor.Tensor, error) {
	// A dead context admits no work, as with Server.Submit; nor does a
	// deadline its timer has not noticed yet, which the server would count
	// as a shed.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts := submitOpts(ctx)
	if !opts.Deadline.IsZero() && !time.Now().Before(opts.Deadline) {
		return nil, context.DeadlineExceeded
	}
	handles := make([]*server.Handle, 0, len(live))
	abandon := func(cause error) error {
		cause = ctxErr(cause)
		expired := !opts.Deadline.IsZero() && errors.Is(cause, context.DeadlineExceeded)
		for _, h := range handles {
			if expired {
				<-h.Done()
			} else {
				h.Cancel()
			}
		}
		return cause
	}
	for _, b := range live {
		g := cellgraph.NewGraph(1, 3, 0, 3, 1+2*dec.Hidden())
		g.Results = results
		g.Add(dec,
			cellgraph.Lit(tensor.FromSlice([]float32{float32(b.nextID)}, 1, 1)),
			cellgraph.Lit(b.h), cellgraph.Lit(b.c))
		h, err := srv.SubmitAsyncOpts(g, opts)
		if err != nil {
			return nil, abandon(err)
		}
		handles = append(handles, h)
	}
	outs := make([]map[string]*tensor.Tensor, len(handles))
	for i, h := range handles {
		select {
		case <-h.Done():
		case <-ctx.Done():
			return nil, abandon(ctx.Err())
		}
		out, err := h.Result()
		if err != nil {
			return nil, abandon(err)
		}
		outs[i] = out
	}
	return outs, nil
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

// topK returns the indices of the k largest values, best first (ties by
// lower index). It keeps a sorted window of k indices, so a greedy step
// costs one pass over the vocabulary, not a sort of it.
func topK(vals []float64, k int) []int {
	best := make([]int, 0, min(k, len(vals)))
	for i, v := range vals {
		if n := len(best); n == cap(best) {
			if n == 0 || v <= vals[best[n-1]] {
				continue
			}
			best = best[:n-1]
		}
		best = append(best, i)
		for j := len(best) - 1; j > 0 && v > vals[best[j-1]]; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	return best
}

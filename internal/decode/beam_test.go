package decode

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

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
	tVocab  = 40
)

func beamServer(t *testing.T) (*server.Server, *rnn.EncoderCell, *rnn.DecoderCell) {
	t.Helper()
	rng := tensor.NewRNG(321)
	enc := rnn.NewEncoderCell("enc", tVocab, tEmbed, tHidden, rng)
	dec := rnn.NewDecoderCell("dec", tVocab, tEmbed, tHidden, rng)
	srv, err := server.New(server.Config{
		Workers: 2,
		Cells: []server.CellSpec{
			{Cell: enc, MaxBatch: 16, Priority: 0},
			{Cell: dec, MaxBatch: 16, Priority: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv, enc, dec
}

// greedyWords runs the static Seq2Seq graph sequentially and returns its
// first steps feed-previous words.
func greedyWords(t *testing.T, enc *rnn.EncoderCell, dec *rnn.DecoderCell, src []int, steps int) []int {
	t.Helper()
	g, err := cellgraph.UnfoldSeq2Seq(enc, dec, src, steps)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cellgraph.ExecuteSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]int, steps)
	for i := range words {
		words[i] = int(out[fmt.Sprintf("word%d", i)].At(0, 0))
	}
	return words
}

func TestBeamWidthOneMatchesGreedyDecode(t *testing.T) {
	srv, enc, dec := beamServer(t)
	src := []int{4, 7, 9}
	const steps = 6
	hyps, err := Beam(context.Background(), srv, BeamSpec{
		Encoder: enc, Decoder: dec, SourceIDs: src,
		Width: 1, MaxSteps: steps, EOS: -1, // EOS never fires
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := greedyWords(t, enc, dec, src, steps); len(hyps) != 1 || !slices.Equal(hyps[0].Words, want) {
		t.Fatalf("beam-1 %+v, greedy %v", hyps, want)
	}
}

// TestBeamMatchesManualFeedPrevious checks width 1 against a hand-rolled
// loop over rnn.Step, independent of cellgraph: encode the source, feed
// <go>, then feed back each emitted word.
func TestBeamMatchesManualFeedPrevious(t *testing.T) {
	srv, enc, dec := beamServer(t)
	src := []int{5, 9, 13}
	const steps = 8
	hyps, err := Beam(context.Background(), srv, BeamSpec{
		Encoder: enc, Decoder: dec, SourceIDs: src,
		Width: 1, MaxSteps: steps, EOS: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	id := func(v int) *tensor.Tensor { return tensor.FromSlice([]float32{float32(v)}, 1, 1) }
	h, c := tensor.New(1, tHidden), tensor.New(1, tHidden)
	for _, w := range src {
		out, err := rnn.Step(enc, map[string]*tensor.Tensor{"ids": id(w), "h": h, "c": c})
		if err != nil {
			t.Fatal(err)
		}
		h, c = out["h"], out["c"]
	}
	word := id(rnn.TokenGo)
	for i := 0; i < steps; i++ {
		out, err := rnn.Step(dec, map[string]*tensor.Tensor{"ids": word, "h": h, "c": c})
		if err != nil {
			t.Fatal(err)
		}
		h, c, word = out["h"], out["c"], out["word"]
		if got := hyps[0].Words[i]; got != int(word.At(0, 0)) {
			t.Fatalf("step %d: served %d, manual %v", i, got, word.At(0, 0))
		}
	}
}

func TestBeamWidthOneStopsAtToken(t *testing.T) {
	srv, enc, dec := beamServer(t)
	src := []int{6, 2, 14}
	greedy := greedyWords(t, enc, dec, src, 8)
	// Stop on greedy's fourth word: the decode ends at its first
	// occurrence, which it includes.
	eos := greedy[3]
	want := greedy[:slices.Index(greedy, eos)+1]
	hyps, err := Beam(context.Background(), srv, BeamSpec{
		Encoder: enc, Decoder: dec, SourceIDs: src,
		Width: 1, MaxSteps: 100, EOS: eos,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hyps) != 1 || !slices.Equal(hyps[0].Words, want) {
		t.Fatalf("hyps %+v, want %v", hyps, want)
	}
}

func TestBeamRespectsMaxSteps(t *testing.T) {
	srv, enc, dec := beamServer(t)
	for _, width := range []int{1, 3} {
		hyps, err := Beam(context.Background(), srv, BeamSpec{
			Encoder: enc, Decoder: dec, SourceIDs: []int{3, 8},
			Width: width, MaxSteps: 6, EOS: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(hyps) != width {
			t.Fatalf("width %d: %d hypotheses", width, len(hyps))
		}
		for _, h := range hyps {
			if len(h.Words) != 6 {
				t.Fatalf("width %d: hypothesis of %d words, want 6", width, len(h.Words))
			}
		}
	}
}

func TestBeamWiderNeverWorse(t *testing.T) {
	// A wider beam's best hypothesis log-prob is >= the greedy one's.
	srv, enc, dec := beamServer(t)
	src := []int{5, 11, 3, 8}
	run := func(width int) float64 {
		hyps, err := Beam(context.Background(), srv, BeamSpec{
			Encoder: enc, Decoder: dec, SourceIDs: src,
			Width: width, MaxSteps: 5, EOS: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(hyps) == 0 || len(hyps) > width {
			t.Fatalf("width %d: %d hypotheses", width, len(hyps))
		}
		// Sorted best-first.
		for i := 1; i < len(hyps); i++ {
			if hyps[i].LogProb > hyps[i-1].LogProb {
				t.Fatalf("width %d: not sorted", width)
			}
		}
		return hyps[0].LogProb
	}
	g1 := run(1)
	g4 := run(4)
	if g4 < g1-1e-9 {
		t.Fatalf("beam-4 best %v worse than greedy %v", g4, g1)
	}
}

func TestBeamStopsAtEOS(t *testing.T) {
	srv, enc, dec := beamServer(t)
	// Pick EOS as whatever greedy emits first so termination is guaranteed;
	// a width of 2 still explores the greedy path.
	src := []int{6, 2, 14}
	eos := greedyWords(t, enc, dec, src, 1)[0]
	hyps, err := Beam(context.Background(), srv, BeamSpec{
		Encoder: enc, Decoder: dec, SourceIDs: src,
		Width: 2, MaxSteps: 10, EOS: eos,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hyps {
		if len(h.Words) == 1 && h.Words[0] == eos {
			found = true
		}
		if len(h.Words) == 0 {
			t.Fatal("empty hypothesis")
		}
	}
	if !found {
		t.Fatalf("greedy EOS hypothesis missing: %+v", hyps)
	}
}

// TestBeamConcurrentSessionsBatch runs many decodes at once over one
// server: each must equal its solo result, whatever it was batched with.
func TestBeamConcurrentSessionsBatch(t *testing.T) {
	srv, enc, dec := beamServer(t)
	const sessions = 10
	specs := make([]BeamSpec, sessions)
	solo := make([][]Hypothesis, sessions)
	for i := range specs {
		specs[i] = BeamSpec{
			Encoder: enc, Decoder: dec, SourceIDs: []int{2 + i, 3 + 2*i, 4},
			Width: 1 + i%3, MaxSteps: 5 + i, EOS: rnn.TokenEOS,
		}
		var err error
		if solo[i], err = Beam(context.Background(), srv, specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	results := make([][]Hypothesis, sessions)
	errs := make([]error, sessions)
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Beam(context.Background(), srv, specs[i])
		}(i)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !slices.EqualFunc(results[i], solo[i], func(a, b Hypothesis) bool {
			return a.LogProb == b.LogProb && slices.Equal(a.Words, b.Words)
		}) {
			t.Fatalf("session %d: concurrent %+v, solo %+v", i, results[i], solo[i])
		}
	}
}

// delayType sleeps every task of one cell type.
type delayType struct {
	typeKey string
	d       time.Duration
}

func (f delayType) Inject(typeKey string, _ int) server.FaultDecision {
	if typeKey != f.typeKey {
		return server.FaultDecision{}
	}
	return server.FaultDecision{Kind: server.FaultDelay, Delay: f.d}
}

// TestBeamHonoursContext checks that ctx bounds every step, not only the
// encode: 300 decoder steps of at least 2 ms each outlast a 20 ms timeout,
// so Beam must return the context's error long before the full run, with
// no step request left live.
func TestBeamHonoursContext(t *testing.T) {
	rng := tensor.NewRNG(321)
	enc := rnn.NewEncoderCell("enc", tVocab, tEmbed, tHidden, rng)
	dec := rnn.NewDecoderCell("dec", tVocab, tEmbed, tHidden, rng)
	srv, err := server.New(server.Config{
		Workers: 2,
		Cells: []server.CellSpec{
			{Cell: enc, MaxBatch: 16, Priority: 0},
			{Cell: dec, MaxBatch: 16, Priority: 1},
		},
		Faults: delayType{typeKey: dec.TypeKey(), d: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	hyps, err := Beam(ctx, srv, BeamSpec{
		Encoder: enc, Decoder: dec, SourceIDs: []int{4, 7, 9},
		Width: 1, MaxSteps: 300, EOS: -1,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v (hyps %d, %v), want context.DeadlineExceeded", err, len(hyps), elapsed)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("Beam returned after %v; the full 300-step run takes >= 600ms", elapsed)
	}
	for deadline := time.Now().Add(time.Second); srv.Stats().LiveRequests != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests still live after Beam returned", srv.Stats().LiveRequests)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBeamLengthNormalization(t *testing.T) {
	h := Hypothesis{Words: []int{1, 2, 3, 4}, LogProb: -4}
	if h.score(false) != -4 {
		t.Fatalf("raw score = %v", h.score(false))
	}
	if h.score(true) != -1 {
		t.Fatalf("normalized score = %v", h.score(true))
	}
}

func TestBeamValidation(t *testing.T) {
	srv, enc, dec := beamServer(t)
	ctx := context.Background()
	for name, spec := range map[string]BeamSpec{
		"nil encoder":     {Decoder: dec, SourceIDs: []int{1}, Width: 1, MaxSteps: 1},
		"zero width":      {Encoder: enc, Decoder: dec, SourceIDs: []int{1}, Width: 0, MaxSteps: 1},
		"zero steps":      {Encoder: enc, Decoder: dec, SourceIDs: []int{1}, Width: 1, MaxSteps: 0},
		"empty source":    {Encoder: enc, Decoder: dec, SourceIDs: nil, Width: 1, MaxSteps: 1},
		"negative id":     {Encoder: enc, Decoder: dec, SourceIDs: []int{4, -1}, Width: 1, MaxSteps: 1},
		"out-of-vocab id": {Encoder: enc, Decoder: dec, SourceIDs: []int{4, tVocab}, Width: 1, MaxSteps: 1},
	} {
		if _, err := Beam(ctx, srv, spec); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("%s: err = %v, want ErrBadSpec", name, err)
		}
	}
	if st := srv.Stats(); st.Outcomes.Admitted != 0 {
		t.Fatalf("a rejected spec admitted %d requests", st.Outcomes.Admitted)
	}
}

func TestLogSoftmaxRow(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 2, 3}, 1, 3)
	lp := logSoftmaxRow(logits)
	var sum float64
	for _, v := range lp {
		if v >= 0 {
			t.Fatalf("log-prob %v >= 0", v)
		}
		sum += math.Exp(v)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum to %v", sum)
	}
	if !(lp[2] > lp[1] && lp[1] > lp[0]) {
		t.Fatalf("ordering lost: %v", lp)
	}
	// Stability at extreme logits.
	big := tensor.FromSlice([]float32{1e4, 1e4 - 1}, 1, 2)
	lp = logSoftmaxRow(big)
	if math.IsNaN(lp[0]) || math.IsInf(lp[0], 0) {
		t.Fatalf("overflow: %v", lp)
	}
}

func TestTopK(t *testing.T) {
	vals := []float64{0.1, 0.9, 0.5, 0.9}
	got := topK(vals, 2)
	if got[0] != 1 || got[1] != 3 { // tie resolves to lower index first
		t.Fatalf("topK = %v", got)
	}
	if got := topK(vals, 10); !slices.Equal(got, []int{1, 3, 2, 0}) {
		t.Fatalf("topK past the length = %v", got)
	}
	// The window against a full stable sort, on a row with many ties.
	rng := tensor.NewRNG(5)
	row := make([]float64, 200)
	for i := range row {
		row[i] = float64(rng.Intn(20))
	}
	idx := make([]int, len(row))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(row[b], row[a]) })
	for _, k := range []int{1, 2, 5, 200} {
		if got := topK(row, k); !slices.Equal(got, idx[:k]) {
			t.Fatalf("k=%d: topK %v, stable sort %v", k, got, idx[:k])
		}
	}
}

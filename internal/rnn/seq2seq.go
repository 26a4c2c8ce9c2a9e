package rnn

import (
	"fmt"

	"batchmaker/internal/graph"
	"batchmaker/internal/tensor"
)

// Special vocabulary symbols used by the Seq2Seq decoder, matching the
// paper's Figure 12: the first decoder step consumes <go>, and decoding
// stops when <eos> is produced (or the maximum decode length is reached).
const (
	TokenGo  = 0
	TokenEOS = 1
)

// EncoderCell is the Seq2Seq encoder cell: an embedding lookup feeding an
// LSTM. Inputs: "ids" [b,1] (float-encoded word ids), "h" [b,h], "c" [b,h].
// Outputs: "h", "c". Encoder and decoder cells do not share weights (§7.4),
// so they are distinct cell types.
type EncoderCell struct {
	name    string
	vocab   int
	embed   *tensor.Tensor // [V, e]
	lstm    *LSTMCell
	typeKey string
}

// NewEncoderCell builds an encoder over a vocabulary of size vocab with
// embedding width embedDim and hidden width hidden.
func NewEncoderCell(name string, vocab, embedDim, hidden int, rng *tensor.RNG) *EncoderCell {
	if vocab <= 2 {
		panic("rnn: vocabulary must be larger than the reserved symbols")
	}
	c := &EncoderCell{
		name:  name,
		vocab: vocab,
		embed: tensor.RandNormal(rng, 0.1, vocab, embedDim),
		lstm:  NewLSTMCell(name+"_lstm", embedDim, hidden, rng),
	}
	c.typeKey = c.Def().TypeKey(c.Weights().Fingerprint())
	return c
}

// Name implements Cell.
func (c *EncoderCell) Name() string { return c.name }

// TypeKey implements Cell.
func (c *EncoderCell) TypeKey() string { return c.typeKey }

// InputNames implements Cell.
func (c *EncoderCell) InputNames() []string { return namesIdsHC }

// OutputNames implements Cell.
func (c *EncoderCell) OutputNames() []string { return namesHC }

// Hidden returns the hidden width.
func (c *EncoderCell) Hidden() int { return c.lstm.hidden }

// Vocab returns the vocabulary size.
func (c *EncoderCell) Vocab() int { return c.vocab }

// OutputWidths implements OutputSized.
func (c *EncoderCell) OutputWidths() map[string]int {
	return map[string]int{"h": c.lstm.hidden, "c": c.lstm.hidden}
}

// Step implements Cell as a thin allocating wrapper over StepInto.
func (c *EncoderCell) Step(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	b, err := batchOf(inputs, c.InputNames())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	out := newOut(c, b)
	if err := c.StepInto(inputs, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// StepInto implements IntoStepper: the embedding row gather lands in arena
// scratch and feeds the shared LSTM core.
func (c *EncoderCell) StepInto(inputs, out map[string]*tensor.Tensor, a *tensor.Arena) error {
	b, err := batchOf(inputs, c.InputNames())
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	h, cc := inputs["h"], inputs["c"]
	if h.Dim(1) != c.lstm.hidden || cc.Dim(1) != c.lstm.hidden {
		return fmt.Errorf("rnn: %s: bad state widths h=%v c=%v", c.name, h.Shape(), cc.Shape())
	}
	hOut, err := outBuf(out, c.name, "h", b, c.lstm.hidden)
	if err != nil {
		return err
	}
	cOut, err := outBuf(out, c.name, "c", b, c.lstm.hidden)
	if err != nil {
		return err
	}
	x := a.Get(b, c.lstm.inDim)
	if err := embedLookupInto(x, c.embed, inputs["ids"], c.name); err != nil {
		return err
	}
	c.lstm.stepCore(x, h, cc, hOut, cOut, a)
	return nil
}

// Def implements DefExporter.
func (c *EncoderCell) Def() *graph.CellDef {
	inner := c.lstm.Def()
	def := &graph.CellDef{
		Name: c.name,
		Inputs: []graph.TensorSpec{
			{Name: "ids", Shape: []int{1}},
			{Name: "h", Shape: []int{c.lstm.hidden}},
			{Name: "c", Shape: []int{c.lstm.hidden}},
		},
		Params: append([]graph.TensorSpec{
			{Name: "embed", Shape: []int{c.vocab, c.lstm.inDim}},
		}, inner.Params...),
		Outputs: inner.Outputs,
		Nodes: append([]graph.NodeDef{
			{Name: "x", Op: graph.OpEmbed, Inputs: []string{"ids", "embed"}},
		}, inner.Nodes...),
	}
	return def
}

// Weights implements DefExporter.
func (c *EncoderCell) Weights() graph.Weights {
	w := c.lstm.Weights()
	w["embed"] = c.embed
	return w
}

// DecoderCell is the Seq2Seq "feed previous" decoder cell (Figure 12): an
// embedding lookup of the previously emitted word, an LSTM step, and an
// output projection to the vocabulary followed by argmax. The projection is
// the large matmul ([b,h] @ [h,V]) that makes decoding ~75% of Seq2Seq
// compute (§7.4).
//
// Inputs: "ids" [b,1] (previous word; <go> on the first step), "h", "c".
// Outputs: "h", "c", "word" [b,1] (the emitted word id, float-encoded).
type DecoderCell struct {
	name     string
	vocab    int
	embed    *tensor.Tensor // [V, e]
	lstm     *LSTMCell
	proj     *tensor.Tensor // [h, V]
	projBias *tensor.Tensor // [V]
	typeKey  string
}

// NewDecoderCell builds a decoder cell.
func NewDecoderCell(name string, vocab, embedDim, hidden int, rng *tensor.RNG) *DecoderCell {
	if vocab <= 2 {
		panic("rnn: vocabulary must be larger than the reserved symbols")
	}
	c := &DecoderCell{
		name:     name,
		vocab:    vocab,
		embed:    tensor.RandNormal(rng, 0.1, vocab, embedDim),
		lstm:     NewLSTMCell(name+"_lstm", embedDim, hidden, rng),
		proj:     tensor.XavierInit(rng, hidden, vocab),
		projBias: tensor.New(vocab),
	}
	c.typeKey = c.Def().TypeKey(c.Weights().Fingerprint())
	return c
}

// Name implements Cell.
func (c *DecoderCell) Name() string { return c.name }

// TypeKey implements Cell.
func (c *DecoderCell) TypeKey() string { return c.typeKey }

// InputNames implements Cell.
func (c *DecoderCell) InputNames() []string { return namesIdsHC }

// OutputNames implements Cell. Beyond the recurrent state and the argmax
// word, the raw vocabulary logits are exposed so callers can implement
// richer decoding (beam search, sampling) on top of the same cell.
func (c *DecoderCell) OutputNames() []string { return namesDecoderOut }

// Hidden returns the hidden width.
func (c *DecoderCell) Hidden() int { return c.lstm.hidden }

// Vocab returns the vocabulary size.
func (c *DecoderCell) Vocab() int { return c.vocab }

// OutputWidths implements OutputSized.
func (c *DecoderCell) OutputWidths() map[string]int {
	return map[string]int{"h": c.lstm.hidden, "c": c.lstm.hidden, "word": 1, "logits": c.vocab}
}

// Step implements Cell as a thin allocating wrapper over StepInto.
func (c *DecoderCell) Step(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	b, err := batchOf(inputs, c.InputNames())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	out := newOut(c, b)
	if err := c.StepInto(inputs, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// StepInto implements IntoStepper: embedding gather, LSTM core, the output
// projection (the large [b,h] @ [h,V] matmul that dominates Seq2Seq compute,
// §7.4), and a row-wise argmax written straight into the "word" buffer.
func (c *DecoderCell) StepInto(inputs, out map[string]*tensor.Tensor, a *tensor.Arena) error {
	b, err := batchOf(inputs, c.InputNames())
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	h, cc := inputs["h"], inputs["c"]
	if h.Dim(1) != c.lstm.hidden || cc.Dim(1) != c.lstm.hidden {
		return fmt.Errorf("rnn: %s: bad state widths h=%v c=%v", c.name, h.Shape(), cc.Shape())
	}
	hOut, err := outBuf(out, c.name, "h", b, c.lstm.hidden)
	if err != nil {
		return err
	}
	cOut, err := outBuf(out, c.name, "c", b, c.lstm.hidden)
	if err != nil {
		return err
	}
	logits, err := outBuf(out, c.name, "logits", b, c.vocab)
	if err != nil {
		return err
	}
	word, err := outBuf(out, c.name, "word", b, 1)
	if err != nil {
		return err
	}
	x := a.Get(b, c.lstm.inDim)
	if err := embedLookupInto(x, c.embed, inputs["ids"], c.name); err != nil {
		return err
	}
	c.lstm.stepCore(x, h, cc, hOut, cOut, a)
	tensor.MatMulAddBiasInto(logits, hOut, c.proj, c.projBias)
	tensor.ArgmaxInto(word, logits)
	return nil
}

// Def implements DefExporter.
func (c *DecoderCell) Def() *graph.CellDef {
	inner := c.lstm.Def()
	def := &graph.CellDef{
		Name: c.name,
		Inputs: []graph.TensorSpec{
			{Name: "ids", Shape: []int{1}},
			{Name: "h", Shape: []int{c.lstm.hidden}},
			{Name: "c", Shape: []int{c.lstm.hidden}},
		},
		Params: append([]graph.TensorSpec{
			{Name: "embed", Shape: []int{c.vocab, c.lstm.inDim}},
			{Name: "proj", Shape: []int{c.lstm.hidden, c.vocab}},
			{Name: "proj_bias", Shape: []int{c.vocab}},
		}, inner.Params...),
		Outputs: []string{"h_new", "c_new", "word", "logits"},
		Nodes: append(append([]graph.NodeDef{
			{Name: "x", Op: graph.OpEmbed, Inputs: []string{"ids", "embed"}},
		}, inner.Nodes...),
			graph.NodeDef{Name: "proj_mm", Op: graph.OpMatMul, Inputs: []string{"h_new", "proj"}},
			graph.NodeDef{Name: "logits", Op: graph.OpAddBias, Inputs: []string{"proj_mm", "proj_bias"}},
			graph.NodeDef{Name: "word", Op: graph.OpArgmaxCast, Inputs: []string{"logits"}},
		),
	}
	return def
}

// Weights implements DefExporter.
func (c *DecoderCell) Weights() graph.Weights {
	w := c.lstm.Weights()
	w["embed"] = c.embed
	w["proj"] = c.proj
	w["proj_bias"] = c.projBias
	return w
}

// embedLookupInto copies the embedding row of each word id into the rows of
// dst ([b, e]), allocation-free. Out-of-vocabulary ids are an error, exactly
// as in the historical allocating lookup.
func embedLookupInto(dst, table, ids *tensor.Tensor, cell string) error {
	if ids.Rank() != 2 || ids.Dim(1) != 1 {
		return fmt.Errorf("rnn: %s: ids must be [b,1], got %v", cell, ids.Shape())
	}
	b, cols := ids.Dim(0), table.Dim(1)
	iv, dd, td := ids.Data(), dst.Data(), table.Data()
	for i := 0; i < b; i++ {
		v := int(iv[i])
		if v < 0 || v >= table.Dim(0) {
			return fmt.Errorf("rnn: %s: word id %d out of vocabulary [0,%d)", cell, v, table.Dim(0))
		}
		copy(dd[i*cols:(i+1)*cols], td[v*cols:(v+1)*cols])
	}
	return nil
}

package tensor

import (
	"fmt"
	"math"
)

// MatMul returns a @ b for rank-2 tensors: a is [m, k], b is [k, n], the
// result is [m, n]. It panics on shape mismatch.
//
// The inner loops are ordered (i, p, j) so the innermost loop walks both the
// output row and the b row contiguously, which is the standard cache-friendly
// ikj ordering for row-major matrices.
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := matMulDims(a, b)
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a @ b, fully overwriting dst (which must be a
// rank-2 [m, n] tensor and must not alias a or b). It is the allocation-free
// form of MatMul: workers call it with arena scratch as dst.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := matMulDims(a, b)
	checkDst(dst, "MatMulInto", m, n)
	matMulTile(dst.data, a.data, b.data, nil, m, k, n)
}

func matMulDims(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 tensors, got %v @ %v", a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v @ %v", a.shape, b.shape))
	}
	return m, k, n
}

func checkDst(dst *Tensor, name string, m, n int) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want [%d %d]", name, dst.shape, m, n))
	}
}

// MatMulAddBias computes a @ w + bias, broadcasting bias (shape [n]) across
// the rows of the [m, n] product. It is the fused op every RNN cell uses.
func MatMulAddBias(a, w, bias *Tensor) *Tensor {
	m, _, n := matMulDims(a, w)
	out := New(m, n)
	MatMulAddBiasInto(out, a, w, bias)
	return out
}

// MatMulAddBiasInto computes dst = a @ w + bias, fully overwriting dst (a
// rank-2 [m, n] tensor that must not alias a or w). Each output row is
// INITIALIZED from the bias and the product accumulated on top, so the bias
// broadcast costs nothing beyond the initialization every matmul needs —
// there is no second O(m·n) sweep over the result.
func MatMulAddBiasInto(dst, a, w, bias *Tensor) {
	m, k, n := matMulDims(a, w)
	checkDst(dst, "MatMulAddBiasInto", m, n)
	if bias.Rank() != 1 || bias.shape[0] != n {
		panic(fmt.Sprintf("tensor: bias shape %v does not match output columns %d", bias.shape, n))
	}
	matMulTile(dst.data, a.data, w.data, bias.data, m, k, n)
}

func elementwise2(a, b *Tensor, name string, f func(x, y float32) float32) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", name, a.shape, b.shape))
	}
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = f(a.data[i], b.data[i])
	}
	return out
}

// Add returns a + b element-wise.
func Add(a, b *Tensor) *Tensor {
	return elementwise2(a, b, "Add", func(x, y float32) float32 { return x + y })
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	return elementwise2(a, b, "Sub", func(x, y float32) float32 { return x - y })
}

// Mul returns a * b element-wise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	return elementwise2(a, b, "Mul", func(x, y float32) float32 { return x * y })
}

// Scale returns s * a.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * s
	}
	return out
}

// Accumulate adds src into dst in place (dst += src); shapes must match.
func Accumulate(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: Accumulate shape mismatch %v vs %v", dst.shape, src.shape))
	}
	for i := range dst.data {
		dst.data[i] += src.data[i]
	}
}

func elementwise2Into(dst, a, b *Tensor, name string, f func(x, y float32) float32) {
	if !a.SameShape(b) || !dst.SameShape(a) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v = %v op %v", name, dst.shape, a.shape, b.shape))
	}
	for i := range dst.data {
		dst.data[i] = f(a.data[i], b.data[i])
	}
}

// AddInto computes dst = a + b element-wise. dst may alias a or b (the op is
// purely element-local), which lets cells chain arithmetic in arena scratch.
func AddInto(dst, a, b *Tensor) {
	elementwise2Into(dst, a, b, "AddInto", func(x, y float32) float32 { return x + y })
}

// SubInto computes dst = a - b element-wise; dst may alias a or b.
func SubInto(dst, a, b *Tensor) {
	elementwise2Into(dst, a, b, "SubInto", func(x, y float32) float32 { return x - y })
}

// MulInto computes dst = a * b element-wise (Hadamard); dst may alias a or b.
func MulInto(dst, a, b *Tensor) {
	elementwise2Into(dst, a, b, "MulInto", func(x, y float32) float32 { return x * y })
}

// Sigmoid returns Sigmoid32 applied element-wise.
func Sigmoid(a *Tensor) *Tensor {
	out := New(a.shape...)
	SigmoidSlice(out.data, a.data)
	return out
}

// Tanh returns Tanh32 applied element-wise.
func Tanh(a *Tensor) *Tensor {
	out := New(a.shape...)
	TanhSlice(out.data, a.data)
	return out
}

// SigmoidInto computes dst = Sigmoid32(src) element-wise; dst may alias src.
func SigmoidInto(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: SigmoidInto shape mismatch %v vs %v", dst.shape, src.shape))
	}
	SigmoidSlice(dst.data, src.data)
}

// TanhInto computes dst = Tanh32(src) element-wise; dst may alias src.
func TanhInto(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: TanhInto shape mismatch %v vs %v", dst.shape, src.shape))
	}
	TanhSlice(dst.data, src.data)
}

// Relu returns max(0, x) element-wise.
func Relu(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		if v > 0 {
			out.data[i] = v
		}
	}
	return out
}

// Softmax applies a numerically stable softmax along the last axis of a
// rank-2 tensor [rows, cols].
func Softmax(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Softmax requires a rank-2 tensor")
	}
	rows, cols := a.shape[0], a.shape[1]
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		in := a.data[i*cols : (i+1)*cols]
		o := out.data[i*cols : (i+1)*cols]
		maxv := float32(math.Inf(-1))
		for _, v := range in {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range in {
			e := math.Exp(float64(v - maxv))
			o[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range o {
			o[j] *= inv
		}
	}
	return out
}

// ArgmaxInto writes, for each row of the rank-2 logits, the index of its
// maximum element into row i of dst ([rows, 1]) as a float32, the encoding a
// decoder's word output carries. Ties resolve to the lowest index, matching
// the paper's custom argmax CUDA kernel; an element wins only by comparing
// greater, so a NaN never does, and a NaN at index 0 is never displaced.
func ArgmaxInto(dst, logits *Tensor) {
	if logits.Rank() != 2 {
		panic("tensor: ArgmaxInto requires rank-2 logits")
	}
	rows, cols := logits.shape[0], logits.shape[1]
	if cols == 0 {
		panic("tensor: ArgmaxInto over empty rows")
	}
	checkDst(dst, "ArgmaxInto", rows, 1)
	for i := 0; i < rows; i++ {
		row := logits.data[i*cols : (i+1)*cols]
		best, bestIdx := row[0], 0
		for j := 1; j < cols; j++ {
			if row[j] > best {
				best, bestIdx = row[j], j
			}
		}
		dst.data[i] = float32(bestIdx)
	}
}

// ConcatRows stacks rank-2 tensors with equal column counts along axis 0.
// This is the "gather" that assembles a batched cell input from per-request
// rows (§4.3 locality discussion).
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	cols := -1
	rows := 0
	for _, t := range ts {
		var r, c int
		switch t.Rank() {
		case 1:
			r, c = 1, t.shape[0]
		case 2:
			r, c = t.shape[0], t.shape[1]
		default:
			panic("tensor: ConcatRows requires rank-1 or rank-2 tensors")
		}
		if cols == -1 {
			cols = c
		} else if cols != c {
			panic(fmt.Sprintf("tensor: ConcatRows column mismatch %d vs %d", cols, c))
		}
		rows += r
	}
	out := New(rows, cols)
	off := 0
	for _, t := range ts {
		copy(out.data[off:], t.data)
		off += len(t.data)
	}
	return out
}

// ConcatCols concatenates rank-2 tensors with equal row counts along axis 1,
// e.g. to form the [x, h] input of an LSTM gate matmul.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	rows := ts[0].shape[0]
	cols := 0
	for _, t := range ts {
		if t.Rank() != 2 {
			panic("tensor: ConcatCols requires rank-2 tensors")
		}
		if t.shape[0] != rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", rows, t.shape[0]))
		}
		cols += t.shape[1]
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		off := i * cols
		for _, t := range ts {
			c := t.shape[1]
			copy(out.data[off:off+c], t.data[i*c:(i+1)*c])
			off += c
		}
	}
	return out
}

// ConcatColsInto concatenates rank-2 tensors with equal row counts along
// axis 1 into dst, fully overwriting it. dst must be rank-2 with the shared
// row count and the summed column count, and must not alias any source. It
// is the allocation-free form of ConcatCols used by the cell fast paths.
func ConcatColsInto(dst *Tensor, ts ...*Tensor) {
	if len(ts) == 0 {
		panic("tensor: ConcatColsInto of nothing")
	}
	rows := ts[0].shape[0]
	cols := 0
	for _, t := range ts {
		if t.Rank() != 2 {
			panic("tensor: ConcatColsInto requires rank-2 tensors")
		}
		if t.shape[0] != rows {
			panic(fmt.Sprintf("tensor: ConcatColsInto row mismatch %d vs %d", rows, t.shape[0]))
		}
		cols += t.shape[1]
	}
	checkDst(dst, "ConcatColsInto", rows, cols)
	for i := 0; i < rows; i++ {
		off := i * cols
		for _, t := range ts {
			c := t.shape[1]
			copy(dst.data[off:off+c], t.data[i*c:(i+1)*c])
			off += c
		}
	}
}

// SplitCols splits a rank-2 tensor into len(widths) tensors along axis 1.
// The widths must sum to the column count. Used to slice the fused LSTM gate
// pre-activations into i, f, g, o.
func SplitCols(a *Tensor, widths ...int) []*Tensor {
	if a.Rank() != 2 {
		panic("tensor: SplitCols requires a rank-2 tensor")
	}
	total := 0
	for _, w := range widths {
		if w < 0 {
			panic("tensor: SplitCols negative width")
		}
		total += w
	}
	if total != a.shape[1] {
		panic(fmt.Sprintf("tensor: SplitCols widths %v do not sum to %d columns", widths, a.shape[1]))
	}
	rows := a.shape[0]
	outs := make([]*Tensor, len(widths))
	start := 0
	for wi, w := range widths {
		t := New(rows, w)
		for i := 0; i < rows; i++ {
			copy(t.data[i*w:(i+1)*w], a.data[i*a.shape[1]+start:i*a.shape[1]+start+w])
		}
		outs[wi] = t
		start += w
	}
	return outs
}

// GatherRows returns a new tensor whose row i is a's row idx[i]. Indices may
// repeat. Used both for embedding lookup (a = embedding table) and for
// assembling batched inputs from scattered request state.
func GatherRows(a *Tensor, idx []int) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: GatherRows requires a rank-2 tensor")
	}
	cols := a.shape[1]
	out := New(len(idx), cols)
	for i, r := range idx {
		if r < 0 || r >= a.shape[0] {
			panic(fmt.Sprintf("tensor: GatherRows index %d out of range [0,%d)", r, a.shape[0]))
		}
		copy(out.data[i*cols:(i+1)*cols], a.data[r*cols:(r+1)*cols])
	}
	return out
}

// ScatterRows copies each row i of src into dst's row idx[i]. It is the
// inverse of GatherRows when idx has no duplicates; with duplicates, later
// rows win.
func ScatterRows(dst, src *Tensor, idx []int) {
	if dst.Rank() != 2 || src.Rank() != 2 {
		panic("tensor: ScatterRows requires rank-2 tensors")
	}
	if dst.shape[1] != src.shape[1] {
		panic(fmt.Sprintf("tensor: ScatterRows column mismatch %d vs %d", dst.shape[1], src.shape[1]))
	}
	if len(idx) != src.shape[0] {
		panic(fmt.Sprintf("tensor: ScatterRows needs %d indices, got %d", src.shape[0], len(idx)))
	}
	cols := dst.shape[1]
	for i, r := range idx {
		if r < 0 || r >= dst.shape[0] {
			panic(fmt.Sprintf("tensor: ScatterRows index %d out of range [0,%d)", r, dst.shape[0]))
		}
		copy(dst.data[r*cols:(r+1)*cols], src.data[i*cols:(i+1)*cols])
	}
}

// SliceRows returns a copy of rows [lo, hi) of a rank-2 tensor.
func SliceRows(a *Tensor, lo, hi int) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: SliceRows requires a rank-2 tensor")
	}
	if lo < 0 || hi > a.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows range [%d,%d) out of bounds for %d rows", lo, hi, a.shape[0]))
	}
	cols := a.shape[1]
	out := New(hi-lo, cols)
	copy(out.data, a.data[lo*cols:hi*cols])
	return out
}

// GatherRowsInto copies one row from each source tensor into the leading
// rows of dst and returns a [len(rows), cols] view sharing dst's backing
// array. Each source must hold exactly one row (rank-1 of length cols, or
// rank-2 [1, cols]); dst must be rank-2 with at least len(rows) rows of the
// same width. It is the allocation-free batched "gather" of §4.3: workers
// reuse one dst buffer per (cell type, input) across tasks. The returned
// view is only valid until the next gather into the same buffer.
func GatherRowsInto(dst *Tensor, rows []*Tensor) *Tensor {
	if dst.Rank() != 2 {
		panic("tensor: GatherRowsInto requires a rank-2 destination")
	}
	if len(rows) == 0 {
		panic("tensor: GatherRowsInto of nothing")
	}
	if len(rows) > dst.shape[0] {
		panic(fmt.Sprintf("tensor: GatherRowsInto of %d rows into %d-row buffer", len(rows), dst.shape[0]))
	}
	cols := dst.shape[1]
	for i, r := range rows {
		switch {
		case r.Rank() == 1 && r.shape[0] == cols:
		case r.Rank() == 2 && r.shape[0] == 1 && r.shape[1] == cols:
		default:
			panic(fmt.Sprintf("tensor: GatherRowsInto row %d has shape %v, want one row of %d", i, r.shape, cols))
		}
		copy(dst.data[i*cols:(i+1)*cols], r.data)
	}
	return &Tensor{shape: []int{len(rows), cols}, data: dst.data[:len(rows)*cols]}
}

// FillRows copies one row from each source tensor into the rows of dst,
// which must be exactly [len(rows), cols]. Each source must hold one row of
// width cols (rank-1, or rank-2 [1, cols]). Unlike GatherRowsInto it returns
// nothing and creates no view header, so a gather into an exact-fit arena
// buffer is completely allocation-free.
func FillRows(dst *Tensor, rows []*Tensor) {
	if dst.Rank() != 2 {
		panic("tensor: FillRows requires a rank-2 destination")
	}
	if len(rows) != dst.shape[0] {
		panic(fmt.Sprintf("tensor: FillRows of %d rows into %d-row buffer", len(rows), dst.shape[0]))
	}
	cols := dst.shape[1]
	for i, r := range rows {
		switch {
		case r.Rank() == 1 && r.shape[0] == cols:
		case r.Rank() == 2 && r.shape[0] == 1 && r.shape[1] == cols:
		default:
			panic(fmt.Sprintf("tensor: FillRows row %d has shape %v, want one row of %d", i, r.shape, cols))
		}
		copy(dst.data[i*cols:(i+1)*cols], r.data)
	}
}

// ScatterRowsInto copies row i of src into dsts[i], the inverse hand-off of
// GatherRowsInto: a batched cell output is scattered back into per-request
// row tensors. Each destination must hold exactly one row of src's width.
// Rows are copied, never aliased, so src (typically a worker-owned batch
// output) may be reused or mutated immediately after the call.
func ScatterRowsInto(dsts []*Tensor, src *Tensor) {
	if src.Rank() != 2 {
		panic("tensor: ScatterRowsInto requires a rank-2 source")
	}
	if len(dsts) != src.shape[0] {
		panic(fmt.Sprintf("tensor: ScatterRowsInto needs %d destinations, got %d", src.shape[0], len(dsts)))
	}
	cols := src.shape[1]
	for i, d := range dsts {
		switch {
		case d.Rank() == 1 && d.shape[0] == cols:
		case d.Rank() == 2 && d.shape[0] == 1 && d.shape[1] == cols:
		default:
			panic(fmt.Sprintf("tensor: ScatterRowsInto destination %d has shape %v, want one row of %d", i, d.shape, cols))
		}
		copy(d.data, src.data[i*cols:(i+1)*cols])
	}
}

// NewRows carves n independent [1, cols] row tensors out of a single backing
// allocation. The rows do not overlap, so they are safe to hand to different
// owners; sharing one allocation keeps a scattered batch cache-adjacent and
// turns n+1 allocations into 2.
func NewRows(n, cols int) []*Tensor {
	if n <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: NewRows(%d, %d) out of range", n, cols))
	}
	backing := make([]float32, n*cols)
	rows := make([]*Tensor, n)
	for i := range rows {
		rows[i] = &Tensor{shape: []int{1, cols}, data: backing[i*cols : (i+1)*cols : (i+1)*cols]}
	}
	return rows
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// Sum returns the sum of all elements, accumulated in float64 for stability.
func Sum(a *Tensor) float64 {
	var s float64
	for _, v := range a.data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func MaxAbs(a *Tensor) float32 {
	var m float32
	for _, v := range a.data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// Package tensor implements a small dense float32 tensor library used as the
// numerical substrate for RNN cell execution.
//
// The paper's BatchMaker system runs its cells as CUDA kernels via the MXNet
// backend; this package is the pure-Go substitute. It provides exactly the
// operations the paper's three applications (LSTM, Seq2Seq, TreeLSTM) need:
// matrix multiplication, element-wise arithmetic, activations, softmax,
// argmax, concatenation and splitting along arbitrary axes, and row
// gather/scatter used by the "gather" memory-contiguity step described in
// §4.3 of the paper.
//
// All tensors are row-major. The first dimension of a batched tensor is the
// batch dimension, matching the batchability rule in §4.2 ("the first
// dimension of each of its input tensors should be the batch dimension").
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// scalar-less tensor; use New or FromSlice to construct one.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// ViewOf returns a tensor value over data with the given shape, copying
// neither and allocating nothing. It is how a caller lays many small tensors
// out in one backing array: the shape slice is retained as-is and may be
// shared by any number of views, so nobody may modify it afterwards. It
// panics if len(data) does not match the shape.
func ViewOf(data []float32, shape []int) Tensor {
	if n := checkShape(shape); len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return Tensor{shape: shape, data: data}
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's shape. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of t with a new shape of the same total size.
// The returned tensor shares t's backing data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (size %d) to %v (size %d)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// String renders the shape and, for small tensors, the contents.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	}
	return b.String()
}

// Row returns a view of row i of a rank-2 tensor (shape [rows, cols]).
// The view shares backing data with t.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a rank-2 tensor")
	}
	cols := t.shape[1]
	return &Tensor{shape: []int{cols}, data: t.data[i*cols : (i+1)*cols]}
}

// RowSlice returns the raw float32 slice for row i of a rank-2 tensor.
func (t *Tensor) RowSlice(i int) []float32 {
	if len(t.shape) != 2 {
		panic("tensor: RowSlice requires a rank-2 tensor")
	}
	cols := t.shape[1]
	return t.data[i*cols : (i+1)*cols]
}

// Equal reports whether t and u have the same shape and elements.
func (t *Tensor) Equal(u *Tensor) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.data {
		if t.data[i] != u.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether t and u have the same shape and all elements are
// within tol of each other. NaNs are never close.
func (t *Tensor) AllClose(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.data {
		d := float64(t.data[i]) - float64(u.data[i])
		if math.IsNaN(d) || math.Abs(d) > tol {
			return false
		}
	}
	return true
}

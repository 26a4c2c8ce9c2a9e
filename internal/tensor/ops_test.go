package tensor

import (
	"math"
	"testing"
)

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got.Data(), want.Data())
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "inner dim mismatch")
	MatMul(New(2, 3), New(2, 2))
}

func TestMatMulRankPanics(t *testing.T) {
	defer expectPanic(t, "rank")
	MatMul(New(2), New(2, 2))
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := RandUniform(rng, 1, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	if !MatMul(a, id).AllClose(a, 1e-6) {
		t.Fatal("a @ I != a")
	}
	if !MatMul(id, a).AllClose(a, 1e-6) {
		t.Fatal("I @ a != a")
	}
}

func TestMatMulAddBias(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	w := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	bias := FromSlice([]float32{10, 20}, 2)
	got := MatMulAddBias(a, w, bias)
	want := FromSlice([]float32{11, 22, 13, 24}, 2, 2)
	if !got.Equal(want) {
		t.Fatalf("MatMulAddBias = %v, want %v", got.Data(), want.Data())
	}
}

func TestMatMulAddBiasShapePanics(t *testing.T) {
	defer expectPanic(t, "bias shape")
	MatMulAddBias(New(2, 2), New(2, 2), New(3))
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := Add(a, b); !got.Equal(FromSlice([]float32{5, 7, 9}, 3)) {
		t.Fatalf("Add = %v", got.Data())
	}
	if got := Sub(b, a); !got.Equal(FromSlice([]float32{3, 3, 3}, 3)) {
		t.Fatalf("Sub = %v", got.Data())
	}
	if got := Mul(a, b); !got.Equal(FromSlice([]float32{4, 10, 18}, 3)) {
		t.Fatalf("Mul = %v", got.Data())
	}
	if got := Scale(a, 2); !got.Equal(FromSlice([]float32{2, 4, 6}, 3)) {
		t.Fatalf("Scale = %v", got.Data())
	}
	dst := a.Clone()
	Accumulate(dst, b)
	if !dst.Equal(FromSlice([]float32{5, 7, 9}, 3)) {
		t.Fatalf("Accumulate = %v", dst.Data())
	}
	out := New(3)
	AddInto(out, a, b)
	if !out.Equal(FromSlice([]float32{5, 7, 9}, 3)) {
		t.Fatalf("AddInto = %v", out.Data())
	}
	SubInto(out, b, a)
	if !out.Equal(FromSlice([]float32{3, 3, 3}, 3)) {
		t.Fatalf("SubInto = %v", out.Data())
	}
	MulInto(out, a, b)
	if !out.Equal(FromSlice([]float32{4, 10, 18}, 3)) {
		t.Fatalf("MulInto = %v", out.Data())
	}
	// Aliasing is allowed: dst may be one of the operands.
	alias := a.Clone()
	MulInto(alias, alias, b)
	if !alias.Equal(FromSlice([]float32{4, 10, 18}, 3)) {
		t.Fatalf("MulInto aliased = %v", alias.Data())
	}
}

func TestElementwiseShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "shape mismatch")
	Add(New(2), New(3))
}

func TestActivations(t *testing.T) {
	a := FromSlice([]float32{-1000, 0, 1000}, 3)
	s := Sigmoid(a)
	if s.At(0) > 1e-6 || math.Abs(float64(s.At(1))-0.5) > 1e-6 || s.At(2) < 1-1e-6 {
		t.Fatalf("Sigmoid = %v", s.Data())
	}
	th := Tanh(FromSlice([]float32{0, 100, -100}, 3))
	if th.At(0) != 0 || th.At(1) < 1-1e-6 || th.At(2) > -1+1e-6 {
		t.Fatalf("Tanh = %v", th.Data())
	}
	r := Relu(FromSlice([]float32{-2, 0, 3}, 3))
	if !r.Equal(FromSlice([]float32{0, 0, 3}, 3)) {
		t.Fatalf("Relu = %v", r.Data())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	s := Softmax(a)
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			v := s.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value out of range: %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Monotonic: higher logit => higher probability.
	if !(s.At(0, 2) > s.At(0, 1) && s.At(0, 1) > s.At(0, 0)) {
		t.Fatalf("softmax not monotone: %v", s.Data())
	}
}

// TestArgmax pins ArgmaxInto's row rule: the first strict maximum wins, so
// ties go to the lowest index, -0 and +0 tie, and NaN never compares greater
// (a leading NaN is never displaced, a later one never wins).
func TestArgmax(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	rows := []struct {
		name string
		row  []float32
		want float32
	}{
		{"max", []float32{1, 5, 3}, 1},
		{"tie", []float32{9, 2, 9}, 0},
		{"tie after lead", []float32{-1, 4, 4}, 1},
		{"NaN at 0", []float32{nan, 3, inf}, 0},
		{"NaN later", []float32{-2, nan, -1}, 2},
		{"-0 then +0", []float32{negZero, 0, -1}, 0},
		{"+0 then -0", []float32{0, negZero, -1}, 0},
		{"-Inf only", []float32{float32(math.Inf(-1)), float32(math.Inf(-1))}, 0},
		{"single", []float32{7}, 0},
	}
	for _, r := range rows {
		dst := FromSlice([]float32{-1}, 1, 1)
		ArgmaxInto(dst, FromSlice(r.row, 1, len(r.row)))
		if got := dst.At(0, 0); got != r.want {
			t.Errorf("%s: ArgmaxInto(%v) = %v, want %v", r.name, r.row, got, r.want)
		}
	}
	a := FromSlice([]float32{1, 5, 3, 9, 2, 9}, 2, 3)
	dst := New(2, 1)
	ArgmaxInto(dst, a)
	if !dst.Equal(FromSlice([]float32{1, 0}, 2, 1)) {
		t.Fatalf("ArgmaxInto rows = %v, want [1 0]", dst.Data())
	}
	if allocs := testing.AllocsPerRun(100, func() { ArgmaxInto(dst, a) }); allocs != 0 {
		t.Fatalf("ArgmaxInto allocates %v times per call", allocs)
	}
}

func TestArgmaxEmptyPanics(t *testing.T) {
	defer expectPanic(t, "empty rows")
	ArgmaxInto(New(2, 1), New(2, 0))
}

func TestArgmaxIntoShapePanics(t *testing.T) {
	defer expectPanic(t, "destination with the wrong row count")
	ArgmaxInto(New(3, 1), New(2, 4))
}

func TestConcatRows(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 1, 2)
	b := FromSlice([]float32{3, 4, 5, 6}, 2, 2)
	v := FromSlice([]float32{7, 8}, 2) // rank-1 treated as one row
	got := ConcatRows(a, b, v)
	want := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 4, 2)
	if !got.Equal(want) {
		t.Fatalf("ConcatRows = %v", got.Data())
	}
}

func TestConcatRowsMismatchPanics(t *testing.T) {
	defer expectPanic(t, "column mismatch")
	ConcatRows(New(1, 2), New(1, 3))
}

func TestConcatCols(t *testing.T) {
	a := FromSlice([]float32{1, 2, 5, 6}, 2, 2)
	b := FromSlice([]float32{3, 7}, 2, 1)
	got := ConcatCols(a, b)
	want := FromSlice([]float32{1, 2, 3, 5, 6, 7}, 2, 3)
	if !got.Equal(want) {
		t.Fatalf("ConcatCols = %v", got.Data())
	}
}

func TestSplitColsInvertsConcatCols(t *testing.T) {
	rng := NewRNG(7)
	a := RandUniform(rng, 1, 3, 2)
	b := RandUniform(rng, 1, 3, 5)
	joined := ConcatCols(a, b)
	parts := SplitCols(joined, 2, 5)
	if !parts[0].Equal(a) || !parts[1].Equal(b) {
		t.Fatal("SplitCols must invert ConcatCols")
	}
}

func TestSplitColsBadWidthsPanics(t *testing.T) {
	defer expectPanic(t, "widths")
	SplitCols(New(2, 4), 1, 2)
}

func TestGatherScatterRows(t *testing.T) {
	table := FromSlice([]float32{0, 0, 1, 1, 2, 2, 3, 3}, 4, 2)
	g := GatherRows(table, []int{3, 1, 3})
	want := FromSlice([]float32{3, 3, 1, 1, 3, 3}, 3, 2)
	if !g.Equal(want) {
		t.Fatalf("GatherRows = %v", g.Data())
	}
	dst := New(4, 2)
	ScatterRows(dst, g, []int{0, 2, 1})
	if dst.At(0, 0) != 3 || dst.At(2, 0) != 1 || dst.At(1, 0) != 3 {
		t.Fatalf("ScatterRows = %v", dst.Data())
	}
}

func TestGatherRowsOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "index range")
	GatherRows(New(2, 2), []int{2})
}

func TestScatterRowsCountMismatchPanics(t *testing.T) {
	defer expectPanic(t, "count mismatch")
	ScatterRows(New(4, 2), New(2, 2), []int{0})
}

func TestSliceRows(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	got := SliceRows(a, 1, 3)
	if !got.Equal(FromSlice([]float32{3, 4, 5, 6}, 2, 2)) {
		t.Fatalf("SliceRows = %v", got.Data())
	}
	// Copy semantics: mutating the slice must not affect the source.
	got.Set(99, 0, 0)
	if a.At(1, 0) == 99 {
		t.Fatal("SliceRows must copy")
	}
}

func TestTransposeKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := Transpose(a)
	want := FromSlice([]float32{1, 4, 2, 5, 3, 6}, 3, 2)
	if !got.Equal(want) {
		t.Fatalf("Transpose = %v", got.Data())
	}
}

func TestSumAndMaxAbs(t *testing.T) {
	a := FromSlice([]float32{1, -5, 2}, 3)
	if got := Sum(a); got != -2 {
		t.Fatalf("Sum = %v", got)
	}
	if got := MaxAbs(a); got != 5 {
		t.Fatalf("MaxAbs = %v", got)
	}
}

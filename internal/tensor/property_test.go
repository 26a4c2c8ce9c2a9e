package tensor

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// randTensor builds a small tensor with values derived from a seed, for use
// inside testing/quick properties (quick generates the seeds and sizes).
func randTensor(seed uint64, rows, cols int) *Tensor {
	r := NewRNG(seed)
	return RandUniform(r, 2, rows, cols)
}

func clampDim(d uint8) int { return int(d%7) + 1 }

func TestPropTransposeInvolution(t *testing.T) {
	f := func(seed uint64, rd, cd uint8) bool {
		a := randTensor(seed, clampDim(rd), clampDim(cd))
		return Transpose(Transpose(a)).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulDistributesOverAdd(t *testing.T) {
	// (a+b) @ c == a@c + b@c, within float tolerance.
	f := func(seed uint64, md, kd, nd uint8) bool {
		m, k, n := clampDim(md), clampDim(kd), clampDim(nd)
		a := randTensor(seed, m, k)
		b := randTensor(seed+1, m, k)
		c := randTensor(seed+2, k, n)
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		return lhs.AllClose(rhs, 1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulScaleCommutes(t *testing.T) {
	// (s*a) @ b == s * (a @ b).
	f := func(seed uint64, md, kd, nd uint8, sv int8) bool {
		m, k, n := clampDim(md), clampDim(kd), clampDim(nd)
		s := float32(sv) / 16
		a := randTensor(seed, m, k)
		b := randTensor(seed+1, k, n)
		return MatMul(Scale(a, s), b).AllClose(Scale(MatMul(a, b), s), 1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropGatherScatterRoundTrip(t *testing.T) {
	// Scattering a gather back through the same permutation restores rows.
	f := func(seed uint64, rd, cd uint8) bool {
		rows, cols := clampDim(rd)+1, clampDim(cd)
		a := randTensor(seed, rows, cols)
		// Build a permutation of row indices.
		rng := NewRNG(seed ^ 0xABCD)
		perm := make([]int, rows)
		for i := range perm {
			perm[i] = i
		}
		for i := rows - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		g := GatherRows(a, perm)
		back := New(rows, cols)
		ScatterRows(back, g, perm)
		return back.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropConcatSplitRoundTrip(t *testing.T) {
	f := func(seed uint64, rd, c1d, c2d uint8) bool {
		rows := clampDim(rd)
		c1, c2 := clampDim(c1d), clampDim(c2d)
		a := randTensor(seed, rows, c1)
		b := randTensor(seed+1, rows, c2)
		parts := SplitCols(ConcatCols(a, b), c1, c2)
		return parts[0].Equal(a) && parts[1].Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropConcatRowsPreservesRows(t *testing.T) {
	f := func(seed uint64, r1d, r2d, cd uint8) bool {
		r1, r2, c := clampDim(r1d), clampDim(r2d), clampDim(cd)
		a := randTensor(seed, r1, c)
		b := randTensor(seed+1, r2, c)
		j := ConcatRows(a, b)
		if j.Dim(0) != r1+r2 {
			return false
		}
		return SliceRows(j, 0, r1).Equal(a) && SliceRows(j, r1, r1+r2).Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropGatherIntoScatterIntoIdentity(t *testing.T) {
	// Gathering per-request rows into a reused batch buffer and scattering
	// the batch back into fresh rows is the identity on row contents.
	f := func(seed uint64, nd, cd uint8) bool {
		n, cols := clampDim(nd), clampDim(cd)
		rows := make([]*Tensor, n)
		for i := range rows {
			if i%2 == 0 {
				rows[i] = randTensor(seed+uint64(i), 1, cols)
			} else {
				// Rank-1 rows must be accepted too, like ConcatRows.
				rows[i] = randTensor(seed+uint64(i), 1, cols).Reshape(cols)
			}
		}
		buf := New(n+3, cols) // over-sized buffer, like a MaxBatch-sized worker buffer
		batch := GatherRowsInto(buf, rows)
		if batch.Dim(0) != n || batch.Dim(1) != cols {
			return false
		}
		back := NewRows(n, cols)
		ScatterRowsInto(back, batch)
		for i := range rows {
			if !back[i].Reshape(cols).Equal(rows[i].Reshape(cols)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropGatherRowsIntoMatchesConcatRows(t *testing.T) {
	// The buffer-reusing gather computes exactly what ConcatRows computes.
	f := func(seed uint64, nd, cd uint8) bool {
		n, cols := clampDim(nd), clampDim(cd)
		rows := make([]*Tensor, n)
		for i := range rows {
			rows[i] = randTensor(seed+uint64(i), 1, cols)
		}
		buf := New(n, cols)
		return GatherRowsInto(buf, rows).Equal(ConcatRows(rows...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropScatterRowsIntoDoesNotAlias(t *testing.T) {
	// Scattered rows are copies: mutating the source batch afterwards (as a
	// worker does when it reuses its gather buffer for the next task) must
	// not change previously scattered outputs, and the carved destination
	// rows must not alias each other.
	f := func(seed uint64, nd, cd uint8) bool {
		n, cols := clampDim(nd), clampDim(cd)
		src := randTensor(seed, n, cols)
		want := src.Clone()
		dsts := NewRows(n, cols)
		ScatterRowsInto(dsts, src)
		for i := range src.Data() {
			src.Data()[i] += 1000
		}
		for i := range dsts {
			if !dsts[i].Reshape(cols).Equal(want.Row(i).Reshape(cols)) {
				return false
			}
		}
		// Writing one destination row must leave its neighbors intact.
		if n > 1 {
			for j := 0; j < cols; j++ {
				dsts[0].Set(-999, 0, j)
			}
			if !dsts[1].Reshape(cols).Equal(want.Row(1).Reshape(cols)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropGatherRowsIntoReusedBufferIsOverwritten(t *testing.T) {
	// Reusing the same buffer for a second gather fully overwrites the view:
	// no rows from the first batch leak into the second (prefix reuse).
	f := func(seed uint64, nd, cd uint8) bool {
		n, cols := clampDim(nd), clampDim(cd)
		buf := New(n+4, cols)
		first := make([]*Tensor, n+2)
		for i := range first {
			first[i] = randTensor(seed+uint64(i), 1, cols)
		}
		GatherRowsInto(buf, first)
		second := make([]*Tensor, n)
		for i := range second {
			second[i] = randTensor(seed+100+uint64(i), 1, cols)
		}
		batch := GatherRowsInto(buf, second)
		for i := range second {
			if !batch.Row(i).Equal(second[i].Reshape(cols)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// monotoneSlack is how far an activation's output may fall below the running
// maximum over ascending inputs: the rational approximation is monotone to
// within a few ulps near ±1 (measured ≤ 6e-7), not bit for bit.
const monotoneSlack = 1e-6

// checkActivationProperty applies act to quick's values, the same values
// scaled into [-20, 20] (quick draws magnitudes up to MaxFloat32, where every
// activation saturates) and a NaN. It checks that NaN maps to NaN, every other
// output lies in [lo, hi], and the outputs over the sorted inputs never drop
// more than monotoneSlack below their running maximum.
func checkActivationProperty(t *testing.T, act func(*Tensor) *Tensor, lo, hi float32) {
	t.Helper()
	f := func(xs []float32) bool {
		for _, x := range xs {
			xs = append(xs, x*(20/math.MaxFloat32))
		}
		xs = append(xs, float32(math.NaN()))
		out := act(FromSlice(xs, len(xs))).Data()
		type pair struct{ x, y float32 }
		var pairs []pair
		for i, x := range xs {
			y := out[i]
			if x != x {
				if y == y {
					return false
				}
				continue
			}
			if y != y || y < lo || y > hi {
				return false
			}
			pairs = append(pairs, pair{x, y})
		}
		slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.x, b.x) })
		best := lo
		for _, p := range pairs {
			if p.y < best-monotoneSlack {
				return false
			}
			best = max(best, p.y)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSigmoidRangeAndMonotone(t *testing.T) {
	checkActivationProperty(t, Sigmoid, 0, 1)
}

func TestPropTanhRange(t *testing.T) {
	checkActivationProperty(t, Tanh, -1, 1)
}

func TestPropSoftmaxArgmaxAgree(t *testing.T) {
	// Argmax of softmax equals argmax of logits (softmax is monotone).
	f := func(seed uint64, rd, cd uint8) bool {
		rows, cols := clampDim(rd), clampDim(cd)
		a := randTensor(seed, rows, cols)
		am1, am2 := New(rows, 1), New(rows, 1)
		ArgmaxInto(am1, a)
		ArgmaxInto(am2, Softmax(a))
		return am1.Equal(am2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropRNGDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 64; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

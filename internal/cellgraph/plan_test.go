package cellgraph

import (
	"reflect"
	"runtime"
	"testing"

	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// hasPointers reports whether a value of type t holds anything the garbage
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	}
	return false
}

// TestPlanHoldsNoPointers pins the plan's element types pointer-free: a
// node, a stored binding and a literal are int32s, so the arrays of a
// request's plan are memory the garbage collector does not scan.
func TestPlanHoldsNoPointers(t *testing.T) {
	for _, v := range []any{node{}, bind{}, lit{}} {
		if typ := reflect.TypeOf(v); hasPointers(typ) {
			t.Errorf("cellgraph.%s holds a pointer", typ.Name())
		}
	}
	if !hasPointers(reflect.TypeOf(Binding{})) {
		t.Fatal("hasPointers misses the pointer in Binding")
	}
}

// TestAddCopiesLiterals: Add copies a literal row, so a caller that reuses
// or changes its tensor afterwards does not change the graph.
func TestAddCopiesLiterals(t *testing.T) {
	lstm, _, _, _, _ := testCells(t)
	x := tensor.Full(1, 1, tEmbed)
	zero := tensor.New(1, tHidden)
	g := &Graph{}
	g.Add(lstm, Lit(x), Lit(zero), Lit(zero))
	g.Results = []OutputSpec{{Name: "h", Node: 0, Out: 0}}
	want, err := ExecuteSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	x.Data()[0], zero.Data()[0] = 7, 7
	if in := g.Input(0, 0); !in.Literal.Equal(tensor.Full(1, 1, tEmbed)) {
		t.Fatalf("input x reads %v after the caller's tensor changed", in.Literal)
	}
	if in := g.Input(0, 2); !in.Literal.Equal(tensor.New(1, tHidden)) {
		t.Fatalf("input c reads %v after the caller's tensor changed", in.Literal)
	}
	got, err := ExecuteSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	if !got["h"].Equal(want["h"]) {
		t.Fatal("the graph's results changed with the caller's tensor")
	}
}

// unfoldCase is one request shape of the repository benchmark at its
// workload's dimensions (benchmark/spec.go): a 20-leaf tree at tree_tiny's
// and a 20-source / 25-decode translation at seq2seq_open's.
type unfoldCase struct {
	name   string
	unfold func() (*Graph, error)
}

func unfoldCases() []unfoldCase {
	rng := tensor.NewRNG(19)
	leaf := rnn.NewTreeLeafCell("leaf", 500, 32, 32, rng)
	internal := rnn.NewTreeInternalCell("internal", 32, rng)
	tree := randomTree(rng, 20)
	enc := rnn.NewEncoderCell("encoder", 1000, 64, 128, rng)
	dec := rnn.NewDecoderCell("decoder", 1000, 64, 128, rng)
	src := make([]int, 20)
	for i := range src {
		src[i] = 2 + rng.Intn(998)
	}
	return []unfoldCase{
		{"tree", func() (*Graph, error) { return UnfoldTree(leaf, internal, tree) }},
		{"seq2seq", func() (*Graph, error) { return UnfoldSeq2Seq(enc, dec, src, 25) }},
	}
}

// TestUnfoldAllocs is the ceiling on what unfolding one request allocates:
// the graph and its flat arrays, a fixed handful whatever the request's
// size, and no object per node, leaf, literal or result name.
//
//	           pointer plan            pointer-free plan    ceiling (+10 %)
//	tree       10 objects, 7 808 B     7 objects, 2 672 B   7, 2 940 B
//	seq2seq    44 objects, 11 008 B    7 objects, 4 656 B   7, 5 120 B
func TestUnfoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the ceiling is checked in the non-race suite")
	}
	objects := map[string]float64{"tree": 7, "seq2seq": 7}
	bytesCeiling := map[string]float64{"tree": 2_940, "seq2seq": 5_120}
	for _, c := range unfoldCases() {
		unfold := func() {
			if _, err := c.unfold(); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(100, unfold)
		bytes := unfoldBytes(100, unfold)
		t.Logf("%s: %.0f objects, %.0f bytes per unfold", c.name, got, bytes)
		if got > objects[c.name] {
			t.Errorf("%s: %.0f objects per unfold, ceiling %.0f", c.name, got, objects[c.name])
		}
		if bytes > bytesCeiling[c.name] {
			t.Errorf("%s: %.0f bytes per unfold, ceiling %.0f", c.name, bytes, bytesCeiling[c.name])
		}
	}
}

// unfoldBytes is the mean heap bytes one call of f allocates, at
// GOMAXPROCS 1 after one warm-up call.
func unfoldBytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// BenchmarkUnfold times TestUnfoldAllocs' two shapes; run with -benchmem
// for B/op and allocs/op.
func BenchmarkUnfold(b *testing.B) {
	for _, c := range unfoldCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := c.unfold(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

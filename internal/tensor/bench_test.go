package tensor

import (
	"fmt"
	"testing"
)

// Benchmarks for the math substrate: the live server's throughput is bound
// by MatMul, so its cost per cell step matters. These mirror the shapes an
// LSTM step at hidden 1024 uses (the paper's configuration).

var benchTensorSink *Tensor

// BenchmarkMatMulLSTMStep is the paper's Fig. 3 at the kernel: one LSTM gate
// matmul, [b, 2h] × [2h, 4h], at h = 256, 512 and 1 024 (weights of 2, 8 and
// 32 MiB) as the batch grows. us/row is what one request pays for the step;
// batching pays where it falls with b.
func BenchmarkMatMulLSTMStep(b *testing.B) {
	for _, h := range []int{256, 512, 1024} {
		rng := NewRNG(1)
		w := RandUniform(rng, 1, 2*h, 4*h)
		for _, m := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("h%d/b%d", h, m), func(b *testing.B) {
				x := RandUniform(rng, 1, m, 2*h)
				dst := New(m, 4*h)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, x, w)
				}
				us := float64(b.Elapsed().Nanoseconds()) / 1e3 / float64(b.N)
				b.ReportMetric(us/float64(m), "us/row")
			})
		}
	}
}

// servingShapes are the weight shapes (k x n) of the three BENCHMARK.json
// models: the LSTM gate matmul and the vocabulary projection of
// seq2seq_open/burst_policy, the leaf and internal TreeLSTM cells of
// tree_tiny, and the encoder gates and projection of wire_durable.
var servingShapes = []struct {
	model string
	k, n  int
}{
	{"seq2seq", 192, 512},
	{"seq2seq", 128, 1000},
	{"tree", 32, 96},
	{"tree", 64, 160},
	{"wire", 48, 128},
	{"wire", 32, 200},
}

// BenchmarkMatMulServing is Fig. 3 at the kernel on this substrate: step time
// versus batch size at the shapes the benchmark actually serves. us/row is
// the per-request cost; it must fall as b grows for batching to pay. b = 7 is
// one 4-row block and three single rows, b = 8 two blocks. GB/s is
// the weight matrix's bytes (4·k·n) over the product's time: at b = 1, where
// every weight is read once, the rate the kernel streams weights, to hold
// against the cache's read ceilings.
func BenchmarkMatMulServing(b *testing.B) {
	for _, s := range servingShapes {
		for _, m := range []int{1, 2, 3, 4, 7, 8, 16, 64} {
			b.Run(fmt.Sprintf("%s_%dx%d/b%d", s.model, s.k, s.n, m), func(b *testing.B) {
				rng := NewRNG(1)
				x := RandUniform(rng, 1, m, s.k)
				w := RandUniform(rng, 1, s.k, s.n)
				dst := New(m, s.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, x, w)
				}
				us := float64(b.Elapsed().Nanoseconds()) / 1e3 / float64(b.N)
				b.ReportMetric(us/float64(m), "us/row")
				b.ReportMetric(float64(4*s.k*s.n)/us/1e3, "GB/s")
			})
		}
	}
}

// BenchmarkSigmoid1024 covers the element-wise activation path on a
// [16, 1024] tensor, in place as the cells run it.
func BenchmarkSigmoid1024(b *testing.B) {
	x := RandUniform(NewRNG(1), 1, 16, 1024)
	dst := New(16, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SigmoidInto(dst, x)
	}
}

// BenchmarkActivation times the activation kernels per element at a gate
// row's lengths: 128 (hidden 128), 512 (an LSTM's four gates at hidden 128)
// and 515 (the same with a three-element scalar tail).
func BenchmarkActivation(b *testing.B) {
	for _, act := range activations {
		for _, n := range []int{128, 512, 515} {
			b.Run(fmt.Sprintf("%s/n%d", act.name, n), func(b *testing.B) {
				src := RandUniform(NewRNG(1), 4, 1, n).Data()
				dst := make([]float32, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					act.slice(dst, src)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}

// BenchmarkGatherRows covers the batched-input assembly (gather) path.
func BenchmarkGatherRows(b *testing.B) {
	table := RandUniform(NewRNG(1), 1, 4096, 1024)
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = (i * 37) % 4096
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTensorSink = GatherRows(table, idx)
	}
}

// BenchmarkConcatRows64 covers assembling a 64-row batch from scattered
// single-row tensors, the per-task gather of the live server.
func BenchmarkConcatRows64(b *testing.B) {
	rng := NewRNG(1)
	rows := make([]*Tensor, 64)
	for i := range rows {
		rows[i] = RandUniform(rng, 1, 1, 1024)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTensorSink = ConcatRows(rows...)
	}
}

package server

import (
	"runtime"
	"testing"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

// admitCase is one request shape of the repository benchmark, served by a
// server configured as the benchmark configures it: unfold builds the graph
// afresh, as a caller does per request.
type admitCase struct {
	name   string
	srv    *Server
	unfold func() (*cellgraph.Graph, error)
}

// admitCases builds the two shapes the allocation ceiling is stated for: a
// 20-leaf tree at tree_tiny's dimensions and a 20-source / 25-decode
// translation at seq2seq_open's (benchmark/spec.go).
func admitCases(tb testing.TB) []admitCase {
	tb.Helper()
	serve := func(c0, c1 rnn.Cell, second int) *Server {
		srv, err := New(Config{Workers: 2, Cells: []CellSpec{
			{Cell: c0, MaxBatch: 64, Priority: 0},
			{Cell: c1, MaxBatch: second, Priority: 1},
		}})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(srv.Stop)
		return srv
	}
	rng := tensor.NewRNG(19)
	leaf := rnn.NewTreeLeafCell("leaf", 500, 32, 32, rng)
	internal := rnn.NewTreeInternalCell("internal", 32, rng)
	var grow func(leaves int) *cellgraph.Tree
	grow = func(leaves int) *cellgraph.Tree {
		if leaves == 1 {
			return &cellgraph.Tree{WordID: rng.Intn(500)}
		}
		left := 1 + rng.Intn(leaves-1)
		return &cellgraph.Tree{Left: grow(left), Right: grow(leaves - left)}
	}
	tree := grow(20)

	enc := rnn.NewEncoderCell("encoder", 1000, 64, 128, rng)
	dec := rnn.NewDecoderCell("decoder", 1000, 64, 128, rng)
	src := make([]int, 20)
	for i := range src {
		src[i] = 2 + rng.Intn(998)
	}
	return []admitCase{
		{"tree", serve(leaf, internal, 64), func() (*cellgraph.Graph, error) {
			return cellgraph.UnfoldTree(leaf, internal, tree)
		}},
		{"seq2seq", serve(enc, dec, 32), func() (*cellgraph.Graph, error) {
			return cellgraph.UnfoldSeq2Seq(enc, dec, src, 25)
		}},
	}
}

// serveOne is what the benchmark's caller does for one request: unfold,
// submit, wait, read the result.
func (c *admitCase) serveOne(tb testing.TB) {
	g, err := c.unfold()
	if err != nil {
		tb.Fatal(err)
	}
	h, err := c.srv.SubmitAsyncOpts(g, SubmitOpts{})
	if err != nil {
		tb.Fatal(err)
	}
	<-h.Done()
	if _, err := h.Result(); err != nil {
		tb.Fatal(err)
	}
}

// TestAdmitAllocs is the ceiling on what serving one request allocates, end
// to end: every goroutine of the pipeline is counted, one request at a time,
// server warm. The worker loop has its own zero gate. What is left is the
// caller's graph (unfold: 10 objects, 7.4 kB for the tree), the request's
// record and channels, and the copied results: the state, tracker and
// partition live in a pooled block, and the scheduler reuses its task and
// subgraph records.
//
// Heap objects per request, measured with this test (GOMAXPROCS 1, as
// testing.AllocsPerRun sets it):
//
//	           before PR 19 (9e0b9d9)   flat plan (PR 19)   reused blocks   ceiling (+10 %)
//	tree       1 630                    130                 20              22
//	seq2seq    2 206                    322                 56              62
//
// Heap bytes per request: a translation used to carve a 1 000-float logits
// row per decode step that nothing reads (181 kB per request); admission
// carves only the rows a binding or a result reads, into a pooled slab.
//
//	           all rows carved   read rows only   reused blocks   ceiling (+10 %)
//	tree       36 kB             36 kB            8 435 B         9 300 B
//	seq2seq    181 kB            83 kB            13 835 B        15 200 B
func TestAdmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the ceiling is checked in the non-race suite")
	}
	ceiling := map[string]float64{"tree": 22, "seq2seq": 62}
	bytesCeiling := map[string]float64{"tree": 9_300, "seq2seq": 15_200}
	for _, c := range admitCases(t) {
		for i := 0; i < 50; i++ {
			c.serveOne(t)
		}
		got := testing.AllocsPerRun(200, func() { c.serveOne(t) })
		t.Logf("%s: %.0f allocs per request (ceiling %.0f)", c.name, got, ceiling[c.name])
		if got > ceiling[c.name] {
			t.Errorf("%s: %.0f allocs per request, ceiling %.0f", c.name, got, ceiling[c.name])
		}
		bytes := bytesPerRun(200, func() { c.serveOne(t) })
		t.Logf("%s: %.0f bytes per request (ceiling %.0f)", c.name, bytes, bytesCeiling[c.name])
		if bytes > bytesCeiling[c.name] {
			t.Errorf("%s: %.0f bytes per request, ceiling %.0f", c.name, bytes, bytesCeiling[c.name])
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// allocated by one call of f, measured at GOMAXPROCS 1 after one warm-up
// call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

func benchmarkAdmit(b *testing.B, name string) {
	for _, c := range admitCases(b) {
		if c.name != name {
			continue
		}
		for i := 0; i < 50; i++ {
			c.serveOne(b)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.serveOne(b)
		}
	}
}

// BenchmarkAdmitTree and BenchmarkAdmitSeq2Seq time one request of
// TestAdmitAllocs' two shapes end to end; run with -benchmem for B/op and
// allocs/op.
func BenchmarkAdmitTree(b *testing.B)    { benchmarkAdmit(b, "tree") }
func BenchmarkAdmitSeq2Seq(b *testing.B) { benchmarkAdmit(b, "seq2seq") }

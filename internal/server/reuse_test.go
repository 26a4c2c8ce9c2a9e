package server

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/tensor"
)

// randomTree grows a binary parse tree with the given number of leaves.
func randomTree(rng *tensor.RNG, leaves int) *cellgraph.Tree {
	if leaves == 1 {
		return &cellgraph.Tree{WordID: rng.Intn(tVocab)}
	}
	left := 1 + rng.Intn(leaves-1)
	return &cellgraph.Tree{Left: randomTree(rng, left), Right: randomTree(rng, leaves-left)}
}

// resultBits snapshots every result tensor's shape and float bits.
func resultBits(res map[string]*tensor.Tensor) map[string][]uint32 {
	out := make(map[string][]uint32, len(res))
	for name, t := range res {
		bits := []uint32{uint32(t.Rank())}
		for _, d := range t.Shape() {
			bits = append(bits, uint32(d))
		}
		for _, v := range t.Data() {
			bits = append(bits, math.Float32bits(v))
		}
		out[name] = bits
	}
	return out
}

// sameBits reports whether two result snapshots are identical.
func sameBits(a, b map[string][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for name, x := range a {
		y, ok := b[name]
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

// sequentialBits is the unbatched reference result of g.
func sequentialBits(t *testing.T, g *cellgraph.Graph) map[string][]uint32 {
	t.Helper()
	want, err := cellgraph.ExecuteSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	return resultBits(want)
}

// blockOf reads a request's block pointer the way the manager writes it.
func blockOf(h *Handle) *reqBlock {
	h.req.stateMu.Lock()
	defer h.req.stateMu.Unlock()
	return h.req.block
}

// TestResultsSurviveBlockReuse: a completed request's block goes back to the
// pool and later requests, of every tree size, reuse it — yet the results
// handed out earlier stay bit-identical, because Results copied them.
func TestResultsSurviveBlockReuse(t *testing.T) {
	m := newTestModel()
	srv, err := New(m.serverConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	rng := tensor.NewRNG(31)
	submit := func(leaves int) (*Handle, map[string][]uint32) {
		g, err := cellgraph.UnfoldTree(m.leaf, m.internal, randomTree(rng, leaves))
		if err != nil {
			t.Fatal(err)
		}
		h, err := srv.SubmitAsync(g)
		if err != nil {
			t.Fatal(err)
		}
		return h, sequentialBits(t, g)
	}
	var served []*Handle
	check := func(h *Handle, want map[string][]uint32) map[string]*tensor.Tensor {
		<-h.Done()
		res, err := h.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(resultBits(res), want) {
			t.Fatalf("request %d diverges from sequential execution", h.ID())
		}
		served = append(served, h)
		return res
	}

	firstH, firstWant := submit(20)
	first := check(firstH, firstWant)
	// Sizes cycle small and large, so blocks are regrown and then reused
	// for smaller requests with stale rows past the new end; four at a time
	// so requests batch together and finish out of order.
	for i := 0; i < 240; i += 4 {
		var hs [4]*Handle
		var wants [4]map[string][]uint32
		for j := range hs {
			hs[j], wants[j] = submit(1 + (i+j)*7%40)
		}
		for j := range hs {
			check(hs[j], wants[j])
		}
	}
	if !sameBits(resultBits(first), firstWant) {
		t.Fatal("the first request's results changed while later requests reused blocks")
	}
	// A block goes back after the task that finished its request retires,
	// which may be just after Done: once idle, every one is back.
	waitIdle(t, srv)
	for _, h := range served {
		if blockOf(h) != nil {
			t.Fatalf("completed request %d kept its block", h.ID())
		}
	}
}

// TestCancelledRequestBlockNeverReused: a request cancelled while one of its
// tasks is held on a worker keeps its block — the held task still has its
// rows — and requests served during the hold match sequential execution.
func TestCancelledRequestBlockNeverReused(t *testing.T) {
	m := newTestModel()
	held, release := make(chan struct{}), make(chan struct{})
	var fired atomic.Bool
	cfg := m.serverConfig(2)
	cfg.Faults = fnInjector(func(string, int) FaultDecision {
		if fired.CompareAndSwap(false, true) {
			close(held)
			<-release
			return FaultDecision{Kind: FaultDelay}
		}
		return FaultDecision{}
	})
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	// Stop waits for the held worker: a failing test must let it go first.
	unhold := sync.OnceFunc(func() { close(release) })
	defer unhold()
	rng := tensor.NewRNG(32)
	g, err := cellgraph.UnfoldTree(m.leaf, m.internal, randomTree(rng, 12))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := srv.SubmitAsync(g)
	if err != nil {
		t.Fatal(err)
	}
	<-held
	block := blockOf(victim)
	if block == nil || !victim.Cancel() {
		t.Fatal("the held request was not live")
	}
	if _, err := victim.Result(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	// Served on the other worker while the victim's task is held.
	for i := 0; i < 40; i++ {
		g, err := cellgraph.UnfoldTree(m.leaf, m.internal, randomTree(rng, 1+i%15))
		if err != nil {
			t.Fatal(err)
		}
		h, err := srv.SubmitAsync(g)
		if err != nil {
			t.Fatal(err)
		}
		if blockOf(h) == block {
			t.Fatal("a later request got the cancelled request's block")
		}
		<-h.Done()
		res, err := h.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(resultBits(res), sequentialBits(t, g)) {
			t.Fatalf("request %d served during the hold diverges from sequential execution", i)
		}
	}
	unhold()
	waitIdle(t, srv)
	if blockOf(victim) != block {
		t.Fatal("the cancelled request's block was released")
	}
}

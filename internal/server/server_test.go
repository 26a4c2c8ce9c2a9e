package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/core"
	"batchmaker/internal/rnn"
	"batchmaker/internal/tensor"
)

const (
	tHidden = 12
	tEmbed  = 8
	tVocab  = 40
)

type testModel struct {
	lstm     *rnn.LSTMCell
	enc      *rnn.EncoderCell
	dec      *rnn.DecoderCell
	leaf     *rnn.TreeLeafCell
	internal *rnn.TreeInternalCell
}

func newTestModel() *testModel {
	rng := tensor.NewRNG(12345)
	return &testModel{
		lstm:     rnn.NewLSTMCell("lstm", tEmbed, tHidden, rng),
		enc:      rnn.NewEncoderCell("enc", tVocab, tEmbed, tHidden, rng),
		dec:      rnn.NewDecoderCell("dec", tVocab, tEmbed, tHidden, rng),
		leaf:     rnn.NewTreeLeafCell("leaf", tVocab, tEmbed, tHidden, rng),
		internal: rnn.NewTreeInternalCell("internal", tHidden, rng),
	}
}

func (m *testModel) serverConfig(workers int) Config {
	return Config{
		Workers:          workers,
		MaxTasksToSubmit: 3,
		Cells: []CellSpec{
			{Cell: m.lstm, MaxBatch: 8},
			{Cell: m.enc, MaxBatch: 8, Priority: 0},
			{Cell: m.dec, MaxBatch: 8, Priority: 1},
			{Cell: m.leaf, MaxBatch: 8, Priority: 0},
			{Cell: m.internal, MaxBatch: 8, Priority: 1},
		},
	}
}

func chainInput(seed uint64, n int) *tensor.Tensor {
	return tensor.RandUniform(tensor.NewRNG(seed), 1, n, tEmbed)
}

func TestServerSingleChainMatchesSequential(t *testing.T) {
	m := newTestModel()
	srv, err := New(m.serverConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	xs := chainInput(1, 6)
	g, err := cellgraph.UnfoldChain(m.lstm, xs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	gRef, _ := cellgraph.UnfoldChain(m.lstm, xs)
	want, err := cellgraph.ExecuteSequential(gRef)
	if err != nil {
		t.Fatal(err)
	}
	if !got["h"].Equal(want["h"]) {
		t.Fatal("served result differs from sequential execution")
	}
}

// TestServerBatchingTransparency is the core end-to-end invariant: many
// concurrent requests of mixed kinds, executed with cross-request cellular
// batching on multiple workers, produce results identical to unbatched
// sequential execution.
func TestServerBatchingTransparency(t *testing.T) {
	m := newTestModel()
	srv, err := New(m.serverConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	type job struct {
		build func() *cellgraph.Graph
	}
	words := tensor.NewRNG(9)
	var jobs []job
	for i := 0; i < 12; i++ {
		n := 1 + i%7
		seed := uint64(i)
		jobs = append(jobs, job{build: func() *cellgraph.Graph {
			g, err := cellgraph.UnfoldChain(m.lstm, chainInput(seed, n))
			if err != nil {
				panic(err)
			}
			return g
		}})
	}
	for i := 0; i < 8; i++ {
		src := make([]int, 1+i%5)
		for j := range src {
			src[j] = 2 + words.Intn(tVocab-2)
		}
		dst := 1 + i%4
		jobs = append(jobs, job{build: func() *cellgraph.Graph {
			g, err := cellgraph.UnfoldSeq2Seq(m.enc, m.dec, src, dst)
			if err != nil {
				panic(err)
			}
			return g
		}})
	}
	for i := 0; i < 6; i++ {
		leaves := 1 << (1 + i%3)
		tree, err := cellgraph.CompleteBinaryTree(leaves, tVocab)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{build: func() *cellgraph.Graph {
			g, err := cellgraph.UnfoldTree(m.leaf, m.internal, tree)
			if err != nil {
				panic(err)
			}
			return g
		}})
	}

	want := make([]map[string]*tensor.Tensor, len(jobs))
	for i, j := range jobs {
		res, err := cellgraph.ExecuteSequential(j.build())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	got := make([]map[string]*tensor.Tensor, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i], errs[i] = srv.Submit(context.Background(), j.build())
		}(i, j)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		for name, w := range want[i] {
			if !got[i][name].AllClose(w, 1e-5) {
				t.Fatalf("job %d output %q: batched serving differs from sequential", i, name)
			}
		}
	}
	// Cross-request batching must actually have happened.
	st := srv.Stats()
	if st.TasksRun == 0 || st.CellsRun <= st.TasksRun {
		t.Fatalf("no cross-request batching: %+v", st)
	}
	batched := 0
	for size, n := range st.BatchSizes {
		if size > 1 {
			batched += n
		}
	}
	if batched == 0 {
		t.Fatalf("every task had batch size 1: %+v", st.BatchSizes)
	}
}

func TestServerSeq2SeqFeedPrevious(t *testing.T) {
	m := newTestModel()
	srv, err := New(m.serverConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	src := []int{3, 4, 5, 6}
	g, err := cellgraph.UnfoldSeq2Seq(m.enc, m.dec, src, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	gRef, _ := cellgraph.UnfoldSeq2Seq(m.enc, m.dec, src, 5)
	want, err := cellgraph.ExecuteSequential(gRef)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("word%d", i)
		if got[name].At(0, 0) != want[name].At(0, 0) {
			t.Fatalf("decoded %s: served %v, sequential %v", name, got[name].At(0, 0), want[name].At(0, 0))
		}
	}
}

func TestServerRejectsUnknownCellType(t *testing.T) {
	m := newTestModel()
	srv, err := New(Config{Workers: 1, Cells: []CellSpec{{Cell: m.lstm, MaxBatch: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	g, _ := cellgraph.UnfoldChainIDs(m.enc, []int{3, 4})
	if _, err := srv.Submit(context.Background(), g); err == nil {
		t.Fatal("want unknown-cell-type error")
	}
}

// TestTypeIsItsKeyNotItsCell: two LSTM cells built from one seed are two
// values with one TypeKey, and the engine makes them one cell type. A graph
// that mixes them partitions by key, and a server registered with one
// serves requests built with the other and batches their rows into one
// task.
func TestTypeIsItsKeyNotItsCell(t *testing.T) {
	a := rnn.NewLSTMCell("lstm", tEmbed, tHidden, tensor.NewRNG(5))
	b := rnn.NewLSTMCell("lstm", tEmbed, tHidden, tensor.NewRNG(5))
	other := rnn.NewLSTMCell("lstm", tEmbed, tHidden, tensor.NewRNG(6))
	if a == b || a.TypeKey() != b.TypeKey() || other.TypeKey() == a.TypeKey() {
		t.Fatal("fixture: want two values of one type and a cell of another")
	}

	// a → b → other → a: the first two nodes are one subgraph, the others
	// one each.
	h, c := cellgraph.OutputIndex(a, "h"), cellgraph.OutputIndex(a, "c")
	x, zero := cellgraph.Lit(tensor.New(1, tEmbed)), cellgraph.Lit(tensor.New(1, tHidden))
	g := &cellgraph.Graph{}
	n := g.Add(a, x, zero, zero)
	n = g.Add(b, x, cellgraph.Ref(n, h), cellgraph.Ref(n, c))
	n = g.Add(other, x, cellgraph.Ref(n, h), cellgraph.Ref(n, c))
	g.Add(a, x, cellgraph.Ref(n, h), cellgraph.Ref(n, c))
	if len(g.TypeKeys()) != 2 {
		t.Fatalf("graph has %d cell types, want 2", len(g.TypeKeys()))
	}
	subs := cellgraph.Partition(g)
	want := []struct {
		key   string
		nodes []cellgraph.NodeID
	}{{a.TypeKey(), []cellgraph.NodeID{0, 1}}, {other.TypeKey(), []cellgraph.NodeID{2}}, {a.TypeKey(), []cellgraph.NodeID{3}}}
	if len(subs) != len(want) {
		t.Fatalf("%d subgraphs, want %d", len(subs), len(want))
	}
	for i, w := range want {
		if subs[i].TypeKey != w.key || !slices.Equal(subs[i].Nodes, w.nodes) {
			t.Fatalf("subgraph %d = %v, want %v", i, subs[i].Nodes, w.nodes)
		}
	}

	var mu sync.Mutex
	maxReqs := 0
	srv, err := New(Config{
		Workers: 1,
		Cells:   []CellSpec{{Cell: a, MaxBatch: 8}},
		Faults:  &onceInjector{decision: FaultDecision{Kind: FaultDelay, Delay: 50 * time.Millisecond}},
		TaskObserver: func(_ int, key string, rows []core.NodeRef) {
			reqs := map[core.RequestID]bool{}
			for _, r := range rows {
				reqs[r.Req] = true
			}
			mu.Lock()
			defer mu.Unlock()
			if key != a.TypeKey() {
				t.Errorf("task of type %q", key)
			}
			maxReqs = max(maxReqs, len(reqs))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	// A one-cell request's task stalls the worker until every request below
	// is admitted, so one task batches the head of every chain.
	stall, err := cellgraph.UnfoldChain(a, chainInput(99, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitAsync(stall); err != nil {
		t.Fatal(err)
	}
	const reqs = 4
	var handles []*Handle
	for i := 0; i < reqs; i++ {
		g, err := cellgraph.UnfoldChain(b, chainInput(uint64(i+1), 3))
		if err != nil {
			t.Fatal(err)
		}
		hd, err := srv.SubmitAsync(g)
		if err != nil {
			t.Fatalf("request built with an equal-key cell refused: %v", err)
		}
		handles = append(handles, hd)
	}
	for i, hd := range handles {
		<-hd.Done()
		got, err := hd.Result()
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := cellgraph.UnfoldChain(b, chainInput(uint64(i+1), 3))
		wantOut, err := cellgraph.ExecuteSequential(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !got["h"].Equal(wantOut["h"]) {
			t.Fatalf("request %d differs from sequential execution", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if maxReqs != reqs {
		t.Fatalf("the widest task batched %d requests, want %d", maxReqs, reqs)
	}
}

func TestServerRejectsInvalidGraph(t *testing.T) {
	m := newTestModel()
	srv, err := New(m.serverConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	// The admission's one validation is cellgraph's; each bad graph below
	// must be refused by it before anything is registered.
	x, zero := cellgraph.Lit(tensor.New(1, tEmbed)), cellgraph.Lit(tensor.New(1, tHidden))
	for _, tc := range []struct {
		want  string
		build func(g *cellgraph.Graph)
	}{
		{"unknown node 99", func(g *cellgraph.Graph) { g.Add(m.lstm, x, cellgraph.Ref(99, 0), zero) }},
		{"does not produce", func(g *cellgraph.Graph) {
			g.Add(m.lstm, x, zero, zero)
			g.Add(m.lstm, x, cellgraph.Ref(0, 0), cellgraph.Ref(0, 5))
		}},
		{"missing binding", func(g *cellgraph.Graph) { g.Add(m.lstm, x, zero) }},
		{"literal must be a [1,w] row", func(g *cellgraph.Graph) { g.Add(m.lstm, x, zero, cellgraph.Lit(tensor.New(2, tHidden))) }},
		{"has no cell", func(g *cellgraph.Graph) { g.Add(nil) }},
		{"cycle", func(g *cellgraph.Graph) {
			g.Add(m.lstm, x, cellgraph.Ref(1, 0), cellgraph.Ref(1, 1))
			g.Add(m.lstm, x, cellgraph.Ref(0, 0), cellgraph.Ref(0, 1))
		}},
		{"dense indices", func(g *cellgraph.Graph) {
			g.Add(m.lstm, x, zero, zero)
			g.Nodes[0].ID = 1
		}},
	} {
		g := &cellgraph.Graph{}
		tc.build(g)
		if _, err := srv.Submit(context.Background(), g); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("want validation error containing %q, got %v", tc.want, err)
		}
	}
	if st := srv.Stats(); st.Outcomes.Admitted != 0 || st.LiveRequests != 0 {
		t.Fatalf("an invalid graph was admitted: %+v", st.Outcomes)
	}
}

func TestServerContextCancellation(t *testing.T) {
	m := newTestModel()
	srv, err := New(m.serverConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(1, 200))
	if _, err := srv.Submit(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestServerStopFailsPendingAndRejectsNew(t *testing.T) {
	m := newTestModel()
	srv, err := New(m.serverConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// A long request that will still be in flight when Stop hits.
	g, _ := cellgraph.UnfoldChain(m.lstm, chainInput(1, 3000))
	errCh := make(chan error, 1)
	go func() {
		_, err := srv.Submit(context.Background(), g)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	srv.Stop()
	select {
	case err := <-errCh:
		// Either it finished before Stop (nil) or it was failed with
		// ErrStopped; both are acceptable, hanging is not.
		if err != nil && !errors.Is(err, ErrStopped) {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit hung across Stop")
	}
	g2, _ := cellgraph.UnfoldChain(m.lstm, chainInput(2, 2))
	if _, err := srv.Submit(context.Background(), g2); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	// Stop is idempotent.
	srv.Stop()
}

func TestServerConfigErrors(t *testing.T) {
	m := newTestModel()
	if _, err := New(Config{Workers: 0, Cells: []CellSpec{{Cell: m.lstm, MaxBatch: 4}}}); err == nil {
		t.Fatal("want workers error")
	}
	if _, err := New(Config{Workers: 1}); err == nil {
		t.Fatal("want no-cells error")
	}
	if _, err := New(Config{Workers: 1, Cells: []CellSpec{{Cell: nil, MaxBatch: 4}}}); err == nil {
		t.Fatal("want nil-cell error")
	}
	if _, err := New(Config{Workers: 1, Cells: []CellSpec{
		{Cell: m.lstm, MaxBatch: 4}, {Cell: m.lstm, MaxBatch: 4},
	}}); err == nil {
		t.Fatal("want duplicate error")
	}
	if _, err := New(Config{Workers: 1, Cells: []CellSpec{{Cell: m.lstm, MaxBatch: 0}}}); err == nil {
		t.Fatal("want MaxBatch error")
	}
}

// widthsCell is a two-output cell that declares the given output widths;
// New must judge it before any step runs.
type widthsCell struct {
	widths map[string]int
}

func (c *widthsCell) Name() string                 { return "widths" }
func (c *widthsCell) TypeKey() string              { return "widths" }
func (c *widthsCell) InputNames() []string         { return []string{"ids", "h"} }
func (c *widthsCell) OutputNames() []string        { return []string{"word", "h"} }
func (c *widthsCell) OutputWidths() map[string]int { return c.widths }
func (c *widthsCell) StepInto(_, _ map[string]*tensor.Tensor, _ *tensor.Arena) error {
	return nil
}

// TestServerRejectsBadOutputWidths: admission carves every read output's
// row from the cell's widths, so New refuses a cell whose widths do not
// cover all its outputs with positive values.
func TestServerRejectsBadOutputWidths(t *testing.T) {
	for _, tc := range []struct {
		name   string
		widths map[string]int
		ok     bool
	}{
		{"complete", map[string]int{"word": 1, "h": 1}, true},
		{"missing", map[string]int{"word": 1}, false},
		{"empty", nil, false},
		{"zero", map[string]int{"word": 1, "h": 0}, false},
		{"negative", map[string]int{"word": -1, "h": 1}, false},
	} {
		cell := &widthsCell{tc.widths}
		srv, err := New(Config{Workers: 1, Cells: []CellSpec{{Cell: cell, MaxBatch: 4}}})
		if tc.ok {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			srv.Stop()
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "positive width") {
			if srv != nil {
				srv.Stop()
			}
			t.Fatalf("%s: New err = %v, want a width error", tc.name, err)
		}
	}
}

func TestServerManyConcurrentSmallRequests(t *testing.T) {
	// Soak: hammer the server from many goroutines; everything completes.
	m := newTestModel()
	srv, err := New(m.serverConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	var wg sync.WaitGroup
	errs := make([]error, 60)
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := cellgraph.UnfoldChain(m.lstm, chainInput(uint64(i), 1+i%9))
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = srv.Submit(context.Background(), g)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.LiveRequests != 0 {
		t.Fatalf("live requests remain: %+v", st)
	}
}

// TestServerSharedGraphConcurrentSubmit: one *Graph submitted many times,
// from several goroutines at once, as beam search and the conformance
// harness do. Everything derived from the bindings is computed when the graph
// is built, so admission only reads it — run under -race — and every
// submission gets the sequential result.
func TestServerSharedGraphConcurrentSubmit(t *testing.T) {
	m := newTestModel()
	srv, err := New(m.serverConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	tree, err := cellgraph.CompleteBinaryTree(8, tVocab)
	if err != nil {
		t.Fatal(err)
	}
	treeGraph, err := cellgraph.UnfoldTree(m.leaf, m.internal, tree)
	if err != nil {
		t.Fatal(err)
	}
	seqGraph, err := cellgraph.UnfoldSeq2Seq(m.enc, m.dec, []int{3, 9, 4, 7}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*cellgraph.Graph{treeGraph, seqGraph} {
		want, err := cellgraph.ExecuteSequential(g)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for c := range errs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 10 && errs[c] == nil; i++ {
					got, err := srv.Submit(context.Background(), g)
					if err != nil {
						errs[c] = err
						return
					}
					for name, w := range want {
						if !got[name].Equal(w) {
							errs[c] = fmt.Errorf("submission %d: result %q differs from sequential execution", i, name)
						}
					}
				}
			}(c)
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				t.Fatalf("caller %d: %v", c, err)
			}
		}
	}
}

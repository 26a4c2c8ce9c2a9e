package main

import (
	"encoding/json"
	"sort"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/dataset"
	"batchmaker/internal/tensor"
)

// item is one generated request: when it is due and what it asks for. The
// program under test receives nothing else.
type item struct {
	due   time.Duration // offset from the window opening
	src   []int         // Seq2Seq source word ids
	dec   int           // Seq2Seq decode length
	tree  *cellgraph.Tree
	cells int    // cell nodes the request unfolds into
	line  []byte // wire: the NDJSON request line, marshalled ahead of time
}

// wireRequest is cmd/batchmaker's request object.
type wireRequest struct {
	IDs    []int `json:"ids"`
	Decode int   `json:"decode"`
}

// corpusSeed fixes the request shapes. Like the paper's fixed WMT-15 and
// TreeBank samples, every segment of a workload serves the same multiset of
// sentence lengths or trees; the seed decides their order, their word ids and
// their arrival times. Drawing the shapes afresh per seed would move the
// cells per request, and with it cpu_ms_per_req, by ±3 % from seed to seed
// with no change in the program.
const corpusSeed = 2018

// buildItems draws n request bodies for the workload: the shapes from the
// fixed corpus (stream selects the window's or the warm-up's), shuffled and
// filled with word ids by seed. It is a pure function of its arguments.
func buildItems(w *workload, seed, stream uint64, n int) []item {
	items := make([]item, n)
	words := dataset.NewWordSampler(seed^0x5eed, 2, w.vocab)
	rng := tensor.NewRNG(seed ^ 0x0dec)
	shuffle := func(swap func(i, j int)) {
		for i := n - 1; i > 0; i-- {
			swap(i, rng.Intn(i+1))
		}
	}
	switch {
	case w.tree:
		trees := dataset.NewTreeSampler(corpusSeed^stream, w.vocab)
		for i := range items {
			t := trees.Sample()
			items[i].tree, items[i].cells = t, t.Nodes()
		}
		shuffle(func(i, j int) { items[i], items[j] = items[j], items[i] })
	case w.wire:
		lengths := dataset.NewUniformLengths(corpusSeed^stream, 2, 8)
		for i := range items {
			items[i].dec = lengths.Sample()
		}
		shuffle(func(i, j int) { items[i], items[j] = items[j], items[i] })
		for i := range items {
			it := &items[i]
			it.src, it.cells = words.Sentence(it.dec), 2*it.dec
			it.line, _ = json.Marshal(wireRequest{IDs: it.src, Decode: it.dec}) // ints cannot fail to marshal
			it.line = append(it.line, '\n')
		}
	default:
		pairs := dataset.NewPairSampler(corpusSeed ^ stream)
		lens := make([][2]int, n)
		for i := range lens {
			src, dst := pairs.Sample()
			lens[i] = [2]int{min(src, seqMaxLen), min(dst, seqMaxLen)}
			if w.fixedLen > 0 {
				lens[i] = [2]int{w.fixedLen, w.fixedLen}
			}
		}
		shuffle(func(i, j int) { lens[i], lens[j] = lens[j], lens[i] })
		for i, l := range lens {
			items[i].src, items[i].dec, items[i].cells = words.Sentence(l[0]), l[1], l[0]+l[1]
		}
	}
	return items
}

// arrivals returns the due times of one window. Arrivals are Poisson
// conditioned on their count: exactly rate × length of them, placed
// independently and uniformly, which keeps exponential-looking gaps while
// every seed offers the same number of requests (an unconditioned count
// would move goodput_rps by its own ±5 % from seed to seed). A burst
// workload adds one burst on top, burstLead before the window closes: late
// enough to start from a settled server, and early enough that its backlog
// has drained well before the end.
func arrivals(w *workload, seed uint64, window time.Duration) []time.Duration {
	rng := tensor.NewRNG(seed ^ 0xa771)
	var due []time.Duration
	phase := func(from, length time.Duration, rate float64) {
		n := int(rate*length.Seconds() + 0.5)
		for i := 0; i < n; i++ {
			due = append(due, from+time.Duration(rng.Float64()*float64(length)))
		}
	}
	phase(0, window, w.rate)
	if w.burst > 0 {
		phase(window-burstLead, burstSpan, float64(w.burst)/burstSpan.Seconds())
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// buildSchedule is the whole input of one segment window.
func buildSchedule(w *workload, seed uint64, window time.Duration) []item {
	due := arrivals(w, seed, window)
	items := buildItems(w, seed, 0, len(due))
	for i := range items {
		items[i].due = due[i]
	}
	return items
}

// warmupItems are the W closed-loop requests that precede the window; they
// come from their own corpus stream so the window never replays them.
func warmupItems(w *workload, seed uint64) []item {
	return buildItems(w, seed, 0x77a2c0de, w.warm)
}

// totalCells is the number of cells the whole schedule unfolds into.
func totalCells(items []item) int {
	sum := 0
	for i := range items {
		sum += items[i].cells
	}
	return sum
}

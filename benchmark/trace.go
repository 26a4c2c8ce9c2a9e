package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its call into that layer. Times are offsets from the window opening.
type span struct {
	name   string
	start  time.Duration
	end    time.Duration
	parent int32 // index of the span that caused this one, -1 for a root
	req    int32 // schedule index of the request it belongs to
}

// requestSpans turns the generator's per-request timestamps into spans: one
// request span from due time to reply, and under it the calls the benchmark
// made into each layer. The timestamps are taken on every segment, traced or
// not, and live in the results slice allocated before the window opens;
// spans are only derived and written once the window has closed, so tracing
// costs the window nothing beyond the counter snapshots at its edges.
func requestSpans(items []item, res []result, wire bool) []span {
	spans := make([]span, 0, 4*len(res))
	for i := range res {
		r, req := &res[i], int32(i)
		parent := int32(len(spans))
		spans = append(spans, span{"request", items[i].due, r.done, -1, req})
		child := func(name string, from, to time.Duration) {
			spans = append(spans, span{name, from, to, parent, req})
		}
		if wire {
			child("wire.conn_wait", items[i].due, r.start)
			child("wire.write", r.start, r.mid)
			child("wire.read", r.mid, r.done)
			continue
		}
		child("cellgraph.unfold", r.start, r.sent)
		child("server.admit", r.sent, r.mid)
		if r.done > r.mid {
			child("server.wait", r.mid, r.done)
		}
	}
	return spans
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted twice).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[int32(i)]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].start < spans[cs[b]].start })
		covered, edge := time.Duration(0), s.start
		for _, c := range cs {
			lo, hi := spans[c].start, spans[c].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" slice; the file loads in
// ui.perfetto.dev or chrome://tracing, like the server's own -trace-out.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans as Chrome trace-event JSON. Each request gets
// its own track (tid = request id), because requests overlap in time and
// slices on one track must nest. Each event carries its self time.
func writeTrace(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString(`{"displayTimeUnit":"ms","otherData":{"workload":"` + workload + `"},"traceEvents":[` + "\n")
	self := selfTimes(spans)
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(traceEvent{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.req,
			Args: map[string]any{"id": i, "parent": s.parent, "req": s.req, "self_us": us(self[i])},
		}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

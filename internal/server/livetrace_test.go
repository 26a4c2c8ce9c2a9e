package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"batchmaker/internal/obsv"
)

// liveTraceDoc is the generic trace-event shape the assertions read.
type liveTraceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		ID   int64          `json:"id"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestServerTraceEndToEnd drives real requests through the live pipeline
// and asserts the assembled trace is a loadable causal trace: per-worker
// tracks declared, batch slices annotated, and at least one completed
// request chained across tracks by flow arrows.
func TestServerTraceEndToEnd(t *testing.T) {
	s, cell := obsServer(t, Config{})
	defer s.Stop()
	const reqs = 6
	for i := 0; i < reqs; i++ {
		submitChain(t, s, cell, uint64(i+1), 5)
	}

	var b bytes.Buffer
	if err := s.Observer().WriteTrace(&b, obsv.TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc liveTraceDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("live trace is not valid JSON: %v", err)
	}

	workerTracks := map[int]bool{}
	var sliceAnnotated bool
	type hop struct {
		ph  string
		pid int
	}
	flows := map[int64][]hop{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				if name, _ := ev.Args["name"].(string); len(name) > 7 && name[:7] == "worker-" {
					workerTracks[ev.Tid] = true
				}
			}
		case "s", "t", "f":
			flows[ev.ID] = append(flows[ev.ID], hop{ev.Ph, ev.Pid})
		case "X":
			if ev.Name == cell.TypeKey() && ev.Args != nil {
				if _, ok := ev.Args["occupancy"]; ok {
					sliceAnnotated = true
				}
			}
		}
	}
	if len(workerTracks) == 0 {
		t.Fatal("trace declares no worker tracks")
	}
	if !sliceAnnotated {
		t.Fatal("no occupancy-annotated batch slice in the live trace")
	}

	// Every completed request must have a full cross-track flow chain:
	// start on the pipeline process, at least one step on a device-pool
	// process, end back on the pipeline process.
	chained := 0
	for id, hops := range flows {
		var start, end, cross bool
		for _, h := range hops {
			switch {
			case h.ph == "s" && h.pid == 1:
				start = true
			case h.ph == "f" && h.pid == 1:
				end = true
			case h.ph == "t" && h.pid >= 10:
				cross = true
			}
		}
		if start && end && cross {
			chained++
		} else if start && end {
			t.Fatalf("request %d completed without a cross-track flow hop: %+v", id, hops)
		}
	}
	if chained != reqs {
		t.Fatalf("%d of %d completed requests have a full cross-track flow chain", chained, reqs)
	}
}

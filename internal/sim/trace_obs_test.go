package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"batchmaker/internal/obsv"
)

// TestSimTraceExport: a virtual-time run with an Observer attached
// assembles the same Perfetto trace the live server produces — valid
// JSON, worker tracks declared, batch slices present, and completed
// requests chained across tracks by flow arrows at virtual timestamps.
func TestSimTraceExport(t *testing.T) {
	o := obsv.NewObserver(nil, 0)
	cfg := defaultBMConfig(NewLSTMModel(512, 1), 2)
	cfg.Observer = o
	wl := &FixedWorkload{Shape: Shape{Kind: KindChain, Len: 6}}
	res, err := RunBatchMaker(cfg, wl, shortRun(200, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("sim run served no requests")
	}

	var b bytes.Buffer
	if err := o.WriteTrace(&b, obsv.TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			ID   int64          `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("sim trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("sim trace is empty for an observed run")
	}

	workerTracks := 0
	var execSlices, annotated int
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
					workerTracks++
				}
			}
		case "s", "t", "f":
			flows[ev.ID] = append(flows[ev.ID], hop{ev.Ph, ev.Pid})
		case "X":
			if ev.Name == TypeLSTM {
				execSlices++
				if ev.Args != nil {
					if _, ok := ev.Args["occupancy"]; ok {
						annotated++
					}
				}
			}
		}
	}
	if workerTracks != 2 {
		t.Fatalf("sim trace declares %d worker tracks, want 2", workerTracks)
	}
	if execSlices == 0 || annotated == 0 {
		t.Fatalf("sim trace has %d exec slices, %d annotated", execSlices, annotated)
	}
	// At least one request must have its full cross-track flow chain in the
	// retained window: start and finish on the pipeline process with an
	// interior hop on a device-pool track.
	chained := 0
	for _, hops := range flows {
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
		}
	}
	if chained == 0 {
		t.Fatal("no completed request has a cross-track flow chain in the sim trace")
	}
}

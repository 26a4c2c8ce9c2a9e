package obsv

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// Trace assembly: the span/event rings are re-assembled into Chrome
// trace-event JSON that loads in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Track layout:
//
//	pid 1            "batchmaker pipeline"
//	  tid 1          request-processor  (admit/terminal lifecycle, policy events)
//	  tid 2          scheduler          (dispatch instants, rebalances)
//	  tid 3          journal            (group-commit flush and fsync slices, durability acks)
//	pid 10+d         "device-pool-<d>"
//	  tid 10+w       worker-<w>         (task-exec slices, first-exec, panics)
//
// Causality is drawn with flow arrows keyed by request ID:
// admit (s) → journal-durable (t) → first-exec (t) → terminal (f), so every
// completed request has at least one cross-track arrow from the
// request-processor track into its executing worker's track. Batch slices
// (task-exec) are annotated with occupancy and padding waste, from the cell
// type's MaxBatch from the observer's type table (SetTypes), and with the
// remote/migration flags read from the record's aux word.
//
// Timestamps are rebased to the earliest retained record so nanosecond
// resolution survives the float microseconds of the trace-event format; the
// base is recorded in otherData.base_unix_ns.

// traceEvent is one Chrome trace-event JSON object.
type traceEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the top-level trace-event JSON document.
type traceDoc struct {
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
	TraceEvents     []traceEvent   `json:"traceEvents"`
}

// Pipeline-process track IDs.
const (
	tracePidPipeline  = 1
	traceTidRP        = 1
	traceTidSched     = 2
	traceTidJournal   = 3
	tracePidDeviceOff = 10 // device pool d -> pid 10+d
	traceTidWorkerOff = 10 // worker w -> tid 10+w
)

type trackKey struct{ pid, tid int }

// TraceOptions filters trace assembly.
type TraceOptions struct {
	// SinceNs drops records whose primary timestamp is older (unix ns for
	// the live server, virtual ns for sim runs). 0 keeps everything.
	SinceNs int64
}

func durPtr(v float64) *float64 { return &v }

// usSince converts a nanosecond timestamp to trace microseconds relative
// to base, keeping nanosecond resolution as the fractional part.
func usSince(ns, base int64) float64 {
	return float64(ns-base) / 1e3
}

// WriteTrace assembles the retained ring records into Chrome trace-event
// JSON and writes it to w. Safe to call concurrently with the hot path
// (ring snapshots are seqlock-protected). Nil-receiver safe: writes an
// empty trace.
func (o *Observer) WriteTrace(w io.Writer, opt TraceOptions) error {
	doc := o.traceDocument(opt)
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

func (o *Observer) traceDocument(opt TraceOptions) traceDoc {
	recs := o.Snapshot()
	if opt.SinceNs > 0 {
		kept := recs[:0]
		for _, r := range recs {
			if r.T0 >= opt.SinceNs {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	var base int64
	if len(recs) > 0 {
		base = recs[0].T0 // Snapshot sorts by T0, so recs[0] is the earliest
	}
	a := traceAssembler{o: o, base: base, tracks: make(map[trackKey]string)}
	for _, r := range recs {
		a.record(r)
	}
	events := append(a.metadata(), a.events...)
	if events == nil {
		events = []traceEvent{} // an empty trace still needs a JSON array
	}
	doc := traceDoc{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"base_unix_ns": base,
			"source":       "batchmaker",
		},
		TraceEvents: events,
	}
	return doc
}

type traceAssembler struct {
	o      *Observer
	base   int64
	events []traceEvent
	// tracks maps every (pid,tid) that emitted an event to its thread name,
	// so metadata() can declare exactly the tracks in use.
	tracks map[trackKey]string
}

func (a *traceAssembler) use(pid, tid int, name string) (int, int) {
	a.tracks[trackKey{pid, tid}] = name
	return pid, tid
}

func (a *traceAssembler) workerTrack(r Record) (int, int) {
	return a.use(tracePidDeviceOff+int(r.Device), traceTidWorkerOff+int(r.Worker),
		"worker-"+strconv.Itoa(int(r.Worker)))
}

func (a *traceAssembler) journalTrack() (int, int) {
	return a.use(tracePidPipeline, traceTidJournal, "journal")
}

func (a *traceAssembler) rpTrack() (int, int) {
	return a.use(tracePidPipeline, traceTidRP, "request-processor")
}

func (a *traceAssembler) schedTrack() (int, int) {
	return a.use(tracePidPipeline, traceTidSched, "scheduler")
}

// thinSliceUs is the nominal duration given to point-in-time lifecycle
// slices so flow arrows have a slice to bind to.
const thinSliceUs = 0.5

// slice emits an X event plus, when flowPh is non-empty, the flow event
// ("s"/"t"/"f") that chains this request across tracks.
func (a *traceAssembler) slice(name string, pid, tid int, ts, dur float64, req int64, flowPh string, args map[string]any) {
	a.events = append(a.events, traceEvent{
		Name: name, Ph: "X", Ts: ts, Dur: durPtr(dur),
		Pid: pid, Tid: tid, Args: args,
	})
	if flowPh != "" && req != 0 {
		ev := traceEvent{Name: "req", Ph: flowPh, Cat: "request",
			Ts: ts, Pid: pid, Tid: tid, ID: req}
		if flowPh == "f" {
			ev.BP = "e" // bind the flow end to the enclosing slice
		}
		a.events = append(a.events, ev)
	}
}

func (a *traceAssembler) instant(name string, pid, tid int, ts float64, args map[string]any) {
	a.events = append(a.events, traceEvent{
		Name: name, Ph: "i", S: "t", Ts: ts, Pid: pid, Tid: tid, Args: args,
	})
}

func (a *traceAssembler) record(r Record) {
	ts := usSince(r.T0, a.base)
	switch r.Kind {
	case KindAdmit:
		pid, tid := a.rpTrack()
		a.slice("admit", pid, tid, ts, thinSliceUs, r.Req, "s", nil)
	case KindComplete, KindFail, KindExpire, KindCancel:
		pid, tid := a.rpTrack()
		a.slice(r.Kind.String(), pid, tid, ts, thinSliceUs, r.Req, "f", nil)
	case KindReject:
		pid, tid := a.rpTrack()
		a.instant("reject", pid, tid, ts, nil)
	case KindPolicyShed:
		pid, tid := a.rpTrack()
		a.instant("policy_shed", pid, tid, ts, nil)
	case KindDispatch:
		pid, tid := a.schedTrack()
		a.instant("dispatch", pid, tid, ts, map[string]any{
			"cell_type":   a.o.TypeName(r.Type),
			"worker":      int(r.Worker),
			"batch":       int(r.Batch),
			"queue_depth": int(r.Queue),
		})
	case KindRebalance:
		pid, tid := a.schedTrack()
		a.instant("rebalance", pid, tid, ts, map[string]any{
			"pin_moves": int(r.Batch),
		})
	case KindFirstExec:
		pid, tid := a.workerTrack(r)
		a.slice("first_exec", pid, tid, ts, thinSliceUs, r.Req, "t", nil)
	case KindTaskExec:
		pid, tid := a.workerTrack(r)
		args := map[string]any{
			"cell_type":   a.o.TypeName(r.Type),
			"batch":       int(r.Batch),
			"queue_depth": int(r.Queue),
			"remote":      r.Flags&FlagRemote != 0,
			"migrated":    r.Flags&FlagMigrated != 0,
		}
		if mb := a.o.maxBatchOf(r.Type); mb > 0 {
			args["occupancy"] = float64(int(r.Batch)) / float64(mb)
			args["padding_waste"] = mb - int(r.Batch)
		}
		dur := usSince(r.T1, a.base) - ts
		if dur < 0 {
			dur = 0
		}
		a.slice(a.o.TypeName(r.Type), pid, tid, ts, dur, 0, "", args)
	case KindPanic:
		pid, tid := a.workerTrack(r)
		a.instant(r.Kind.String(), pid, tid, ts, map[string]any{
			"cell_type": a.o.TypeName(r.Type),
			"batch":     int(r.Batch),
		})
	case KindJournalFlush:
		pid, tid := a.journalTrack()
		dur := usSince(r.T1, a.base) - ts
		if dur < 0 {
			dur = 0
		}
		a.slice("journal_flush", pid, tid, ts, dur, 0, "", map[string]any{
			"records": int(r.Batch),
		})
	case KindJournalFsync:
		pid, tid := a.journalTrack()
		dur := usSince(r.T1, a.base) - ts
		if dur < 0 {
			dur = 0
		}
		a.slice("journal_fsync", pid, tid, ts, dur, 0, "", nil)
	case KindJournalDurable:
		pid, tid := a.journalTrack()
		a.slice("durable", pid, tid, ts, thinSliceUs, r.Req, "t", nil)
	}
}

// metadata declares process and thread names for every track in use.
func (a *traceAssembler) metadata() []traceEvent {
	keys := make([]trackKey, 0, len(a.tracks))
	for k := range a.tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	var meta []traceEvent
	seenPid := make(map[int]bool)
	for _, k := range keys {
		if !seenPid[k.pid] {
			seenPid[k.pid] = true
			name := "batchmaker pipeline"
			if k.pid >= tracePidDeviceOff {
				name = "device-pool-" + strconv.Itoa(k.pid-tracePidDeviceOff)
			}
			meta = append(meta, traceEvent{
				Name: "process_name", Ph: "M", Pid: k.pid, Tid: 0,
				Args: map[string]any{"name": name},
			})
		}
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", Pid: k.pid, Tid: k.tid,
			Args: map[string]any{"name": a.tracks[k]},
		})
	}
	return meta
}

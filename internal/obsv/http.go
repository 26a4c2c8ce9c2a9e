package obsv

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Health is the /healthz payload. Serving reports 200; draining, stopped,
// or overloaded report 503 so load balancers stop routing new work. A
// degraded journal is a detail, not a failure: the server still answers
// 200 (it serves correctly — durability is what's lost), and operators
// alert on the detail fields or the journal error counter.
type Health struct {
	Status       string `json:"status"` // "serving", "draining", "stopped", "overloaded"
	Draining     bool   `json:"draining"`
	Stopped      bool   `json:"stopped"`
	Overloaded   bool   `json:"overloaded"`
	LiveRequests int    `json:"live_requests"`
	QueuedCells  int    `json:"queued_cells"`
	// JournalDegraded is true when the request journal hit a write/fsync
	// error and flipped to lossy mode; JournalError carries the cause.
	JournalDegraded bool   `json:"journal_degraded,omitempty"`
	JournalError    string `json:"journal_error,omitempty"`
	// PolicyShedding is true while the SLA feasibility rule's last decision
	// was a shed; PolicySheds counts the requests it rejected. Like a
	// degraded journal these are details, not failures — the server still
	// answers 200 while shedding (it is protecting its SLA).
	PolicyShedding bool  `json:"policy_shedding,omitempty"`
	PolicySheds    int64 `json:"policy_sheds,omitempty"`
}

// OK reports whether the health state should answer 200.
func (h Health) OK() bool { return h.Status == "serving" }

// defaultDebugRequests caps /debug/requests output when no ?limit= is given.
const defaultDebugRequests = 256

// Handler returns the introspection mux: /metrics (Prometheus text
// format), /debug/requests (JSONL request timelines), /healthz (health
// probe; 503 unless serving), and /debug/pprof/*. health may be nil, in
// which case /healthz always answers 200 "serving".
func Handler(o *Observer, health func() Health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = o.Metrics.Registry().WritePromTo(w)
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		limit := defaultDebugRequests
		if s := r.URL.Query().Get("limit"); s != "" {
			if n, err := strconv.Atoi(s); err == nil {
				limit = n
			}
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = o.WriteRequestsJSONL(w, limit)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		var opt TraceOptions
		if s := r.URL.Query().Get("since"); s != "" {
			if ns, err := strconv.ParseInt(s, 10, 64); err == nil {
				opt.SinceNs = ns
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Content-Disposition", `attachment; filename="batchmaker-trace.json"`)
		_ = o.WriteTrace(w, opt)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		h := Health{Status: "serving"}
		if health != nil {
			h = health()
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if !h.OK() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("batchmaker introspection\n\n" +
			"  /metrics          Prometheus text exposition\n" +
			"  /debug/requests   recent request timelines (JSONL, ?limit=N)\n" +
			"  /debug/trace      Perfetto/Chrome trace-event JSON (?since=unixNs)\n" +
			"  /healthz          drain/overload state (503 unless serving)\n" +
			"  /debug/pprof/     Go runtime profiles\n"))
	})
	return mux
}

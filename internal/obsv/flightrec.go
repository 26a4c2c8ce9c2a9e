package obsv

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Flight-recorder metric family names. Registered only when a recorder is
// wired, so recorder-off deployments keep the golden exposition unchanged.
const (
	MetricFlightIncidents = "batchmaker_flightrec_incidents_total"
	MetricFlightBundles   = "batchmaker_flightrec_bundles_total"
)

// Incident reasons (bundle directory suffixes). Each detector rule reads a
// different fact: the latency split, the rejected-requests counter, the
// journal's health.
const (
	IncidentForced         = "forced"
	IncidentSLABreach      = "sla_p99"
	IncidentShedBurst      = "shed_burst"
	IncidentJournalDegrade = "journal_degraded"
)

// Detector and spool constants.
const (
	// maxBundles bounds the spool: oldest bundles are pruned beyond it.
	maxBundles = 8
	// debounce is the minimum spacing between bundles, so one incident
	// produces exactly one bundle even when several rules fire across
	// consecutive ticks.
	debounce = 5 * time.Minute
	// interval is the detector evaluation period.
	interval = 5 * time.Second
	// rejectBurst is the per-tick rise in rejections that counts as a shed
	// burst.
	rejectBurst = 10
)

// FlightRecorderConfig configures the anomaly-triggered flight recorder.
type FlightRecorderConfig struct {
	// Dir is the bundle spool directory (created if missing). Required.
	Dir string
	// SLA arms the P99-breach rule: queuing+computation P99 above it
	// triggers. 0 disables the rule.
	SLA time.Duration
	// Health, when non-nil, arms the journal-degradation rule and adds
	// health.json to every bundle.
	Health func() Health
}

// Incident is the manifest written to a bundle's incident.json: what fired
// and when. The facts behind it are in the bundle's other files.
type Incident struct {
	Reason string `json:"reason"`
	UnixNs int64  `json:"unix_ns"`
	Time   string `json:"time"`
	Seq    int    `json:"seq"`
}

// FlightRecorder is an always-on incident detector over the obsv registry.
// On trigger it atomically dumps a self-contained diagnosis bundle (metrics
// exposition, the trace assembled from the rings, goroutine + heap
// profiles) to a bounded on-disk spool. Detection runs on
// its own goroutine off the hot path; the serving pipeline never blocks on
// it.
type FlightRecorder struct {
	o   *Observer
	cfg FlightRecorderConfig

	incidents *Counter
	bundles   *Counter

	mu         sync.Mutex
	latched    map[string]bool
	lastDumpNs int64
	seq        int

	lastRejected int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewFlightRecorder builds a recorder over o's rings and metrics (o must be
// an observer reporting serving metrics) and starts its detector goroutine,
// which evaluates the rules every interval until Stop. Evaluate and Force
// may also be called directly.
func NewFlightRecorder(o *Observer, cfg FlightRecorderConfig) (*FlightRecorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flightrec: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	reg := o.Metrics.Registry()
	fr := &FlightRecorder{
		o:   o,
		cfg: cfg,
		incidents: reg.Counter(MetricFlightIncidents,
			"Incidents detected by the flight recorder."),
		bundles: reg.Counter(MetricFlightBundles,
			"Flight-recorder bundles written to the spool."),
		latched:      make(map[string]bool),
		lastRejected: o.Metrics.Rejected.Value(),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	go fr.run()
	return fr, nil
}

func (fr *FlightRecorder) run() {
	defer close(fr.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-fr.stop:
			return
		case now := <-t.C:
			fr.Evaluate(now.UnixNano())
		}
	}
}

// Stop halts the detector loop and waits for it to exit (idempotent).
func (fr *FlightRecorder) Stop() {
	fr.stopOnce.Do(func() { close(fr.stop) })
	<-fr.done
}

// Evaluate runs one detector pass at nowNs and returns the bundle paths
// written (usually none). Each rule is latched: it fires once when its
// condition becomes true and re-arms only after the condition clears, so a
// persistent incident produces one bundle, not one per tick.
func (fr *FlightRecorder) Evaluate(nowNs int64) []string {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	var fired []string
	check := func(reason string, active bool) {
		if !active {
			fr.latched[reason] = false
			return
		}
		if fr.latched[reason] {
			return
		}
		fr.latched[reason] = true
		fr.incidents.Inc()
		if dir, err := fr.dumpLocked(reason, nowNs); err == nil && dir != "" {
			fired = append(fired, dir)
		}
	}

	sm := fr.o.Metrics
	if fr.cfg.SLA > 0 {
		total := sm.Queuing.Percentile(99) + sm.Computation.Percentile(99)
		check(IncidentSLABreach, total > fr.cfg.SLA)
	}
	rej := sm.Rejected.Value()
	check(IncidentShedBurst, rej-fr.lastRejected >= rejectBurst)
	fr.lastRejected = rej
	if fr.cfg.Health != nil {
		check(IncidentJournalDegrade, fr.cfg.Health().JournalDegraded)
	}
	return fired
}

// Force triggers a bundle dump unconditionally (operator endpoint, tests).
// The debounce still applies, so repeated forcing within the window writes
// exactly one bundle; the returned path is empty when debounced.
func (fr *FlightRecorder) Force(reason string, nowNs int64) (string, error) {
	if reason == "" {
		reason = IncidentForced
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.incidents.Inc()
	return fr.dumpLocked(reason, nowNs)
}

// dumpLocked writes one bundle (debounce permitting). The bundle is staged
// in a ".tmp" directory and renamed into place, so readers of the spool
// never see a partial bundle.
func (fr *FlightRecorder) dumpLocked(reason string, nowNs int64) (string, error) {
	if fr.lastDumpNs != 0 && nowNs-fr.lastDumpNs < int64(debounce) {
		return "", nil
	}
	fr.lastDumpNs = nowNs
	fr.seq++
	name := fmt.Sprintf("incident-%06d-%s", fr.seq, reason)
	final := filepath.Join(fr.cfg.Dir, name)
	tmp := final + ".tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	if err := fr.writeBundle(tmp, reason, nowNs); err != nil {
		_ = os.RemoveAll(tmp)
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.RemoveAll(tmp)
		return "", err
	}
	fr.bundles.Inc()
	fr.pruneLocked()
	return final, nil
}

func writeFile(dir, name string, fn func(f *os.File) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func (fr *FlightRecorder) writeBundle(dir, reason string, nowNs int64) error {
	inc := Incident{
		Reason: reason,
		UnixNs: nowNs,
		Time:   time.Unix(0, nowNs).UTC().Format(time.RFC3339Nano),
		Seq:    fr.seq,
	}
	steps := []struct {
		name string
		fn   func(f *os.File) error
	}{
		{"incident.json", func(f *os.File) error {
			e := json.NewEncoder(f)
			e.SetIndent("", "  ")
			return e.Encode(inc)
		}},
		{"metrics.prom", func(f *os.File) error {
			return fr.o.Metrics.Registry().WritePromTo(f)
		}},
		{"trace.json", func(f *os.File) error {
			return fr.o.WriteTrace(f, TraceOptions{})
		}},
		{"goroutines.txt", func(f *os.File) error {
			return pprof.Lookup("goroutine").WriteTo(f, 1)
		}},
		{"heap.pprof", func(f *os.File) error {
			return pprof.Lookup("heap").WriteTo(f, 0)
		}},
	}
	if fr.cfg.Health != nil {
		steps = append(steps, struct {
			name string
			fn   func(f *os.File) error
		}{"health.json", func(f *os.File) error {
			return json.NewEncoder(f).Encode(fr.cfg.Health())
		}})
	}
	for _, s := range steps {
		if err := writeFile(dir, s.name, s.fn); err != nil {
			return fmt.Errorf("flightrec: %s: %w", s.name, err)
		}
	}
	return nil
}

// pruneLocked keeps the spool bounded: oldest bundles (lowest sequence
// numbers) beyond maxBundles are removed.
func (fr *FlightRecorder) pruneLocked() {
	entries, err := os.ReadDir(fr.cfg.Dir)
	if err != nil {
		return
	}
	var bundles []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "incident-") &&
			!strings.HasSuffix(e.Name(), ".tmp") {
			bundles = append(bundles, e.Name())
		}
	}
	sort.Strings(bundles) // zero-padded seq: lexicographic = chronological
	for len(bundles) > maxBundles {
		_ = os.RemoveAll(filepath.Join(fr.cfg.Dir, bundles[0]))
		bundles = bundles[1:]
	}
}

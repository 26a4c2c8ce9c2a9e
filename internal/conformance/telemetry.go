package conformance

import (
	"fmt"
	"strconv"
	"strings"

	"batchmaker/internal/obsv"
)

// sample is one series line of a Prometheus text exposition.
type sample struct {
	labels map[string]string
	value  float64
}

// scrape renders the registry the way /metrics does and parses the text
// back, so the reconciliation below checks the numbers a scrape would see —
// exposition included — not the in-memory cells.
func scrape(reg *obsv.Registry) (map[string][]sample, error) {
	var b strings.Builder
	if err := reg.WritePromTo(&b); err != nil {
		return nil, err
	}
	out := make(map[string][]sample)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("conformance: exposition line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("conformance: exposition line %q: %w", line, err)
		}
		name, s := line[:sp], sample{value: v}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			s.labels = make(map[string]string)
			for _, pair := range strings.Split(strings.TrimSuffix(name[i+1:], "}"), ",") {
				k, q, _ := strings.Cut(pair, "=")
				if s.labels[k], err = strconv.Unquote(q); err != nil {
					return nil, fmt.Errorf("conformance: exposition line %q: %w", line, err)
				}
			}
			name = name[:i]
		}
		out[name] = append(out[name], s)
	}
	return out, nil
}

// reconcile holds a server's metric registry to the run's ground truth after
// the pipeline has stopped (ROADMAP: telemetry as an invariant). tasks is the
// TaskObserver log of the same server. It checks that
//
//   - executed tasks and cells, in total and per worker and per cell type,
//     equal the tasks and rows the workers reported;
//   - the occupancy histogram counted every task and summed every row;
//   - admitted requests equal the sum of the four terminal outcomes;
//   - every backlog gauge (in-flight requests, queued cells, per-type ready
//     depth, per-worker queue depth) drained to zero.
func reconcile(reg *obsv.Registry, tasks []ExecutedTask) []Violation {
	var vs []Violation
	violate := func(format string, a ...interface{}) {
		vs = append(vs, Violation{Kind: "telemetry", Req: -1, Detail: fmt.Sprintf(format, a...)})
	}
	fams, err := scrape(reg)
	if err != nil {
		violate("%v", err)
		return vs
	}
	// sum adds a family's series grouped by one label ("" puts every series
	// in one group keyed ""). A family with no series sums to an empty map.
	sum := func(name, label string) map[string]int {
		out := make(map[string]int)
		for _, s := range fams[name] {
			out[s.labels[label]] += int(s.value)
		}
		return out
	}
	expect := func(what string, got, want int) {
		if got != want {
			violate("%s: registry says %d, ground truth is %d", what, got, want)
		}
	}

	// Ground truth from the task log: {tasks, rows} in total (label ""),
	// per worker and per cell type.
	truth := map[string]map[string][2]int{"": {}, "worker": {}, "cell_type": {}}
	for _, t := range tasks {
		for label, key := range map[string]string{"": "", "worker": strconv.Itoa(t.Worker), "cell_type": t.TypeKey} {
			c := truth[label][key]
			truth[label][key] = [2]int{c[0] + 1, c[1] + len(t.Rows)}
		}
	}
	for label, want := range truth {
		gotTasks, gotCells := sum(obsv.MetricTasksExecuted, label), sum(obsv.MetricCellsExecuted, label)
		for key, c := range want {
			if _, ok := gotTasks[key]; !ok {
				violate("%s has no %s=%q series but %d tasks ran there", obsv.MetricTasksExecuted, label, key, c[0])
			}
		}
		for key := range gotTasks {
			at := fmt.Sprintf("{%s=%q}", label, key)
			expect(obsv.MetricTasksExecuted+at, gotTasks[key], want[key][0])
			expect(obsv.MetricCellsExecuted+at, gotCells[key], want[key][1])
		}
	}
	total := truth[""][""]
	expect(obsv.MetricBatchOccupancy+"_count", sum(obsv.MetricBatchOccupancy+"_count", "")[""], total[0])
	expect(obsv.MetricBatchOccupancy+"_sum", sum(obsv.MetricBatchOccupancy+"_sum", "")[""], total[1])

	by := sum(obsv.MetricRequestsTotal, "outcome")
	expect("admitted vs sum of terminal outcomes", by[obsv.OutcomeAdmitted],
		by[obsv.OutcomeCompleted]+by[obsv.OutcomeFailed]+by[obsv.OutcomeExpired]+by[obsv.OutcomeCancelled])

	for _, g := range []struct{ name, label string }{
		{obsv.MetricInflightRequests, ""},
		{obsv.MetricQueuedCells, ""},
		{obsv.MetricReadyQueueDepth, "cell_type"},
		{obsv.MetricWorkerQueueDepth, "worker"},
	} {
		series := sum(g.name, g.label)
		if len(series) == 0 {
			violate("%s: no series exposed", g.name)
		}
		for key, v := range series {
			if v != 0 {
				violate("%s{%s=%s} = %d after the pipeline stopped, want 0", g.name, g.label, key, v)
			}
		}
	}
	return vs
}

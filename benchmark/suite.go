package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// bounds reads each end-to-end metric's regression bound from BENCHMARK.json,
// the one place they are recorded.
func bounds(root string) (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// suite is the whole benchmark for a person: the same measuring loop as a
// one-workload run, over every workload at once so that their segments
// interleave, then the traced pass. With sets > 1 the loop runs that many
// times, set s on seed+s, and the sets' values are compared against the
// bounds: that is the noise record. With ten sets it is the comparison the
// accepting driver makes over ten runs.
func suite(ctx context.Context, e env, root, only string, seed uint64, sets, trace int) error {
	ws := workloads
	if only != "" {
		w := workloadByName(only)
		if w == nil {
			return fmt.Errorf("unknown workload %q", only)
		}
		ws = []*workload{w}
	}
	bound, err := bounds(root)
	if err != nil {
		return err
	}
	fmt.Printf("environment: %s\n", environment())

	if trace != 1 {
		perSet := make([]map[string][]*segResult, sets)
		for s := range perSet {
			if perSet[s], err = e.measure(ctx, ws, seed+uint64(s), segmentWindow); err != nil {
				return err
			}
		}
		for _, w := range ws {
			printEndToEnd(w, perSet, bound)
		}
	}

	if trace != 0 {
		for _, w := range ws {
			layer, _, failedN, err := tracedPass(ctx, e, w, seed, segmentWindow)
			if err != nil {
				return err
			}
			fmt.Printf("\n%s   per layer, traced pass (failed requests: %d; trace: %s)\n",
				w.name, failedN, filepath.Join(e.out, "trace_"+w.name+".json"))
			for _, d := range perLayer {
				fmt.Printf("  %-32s %14.4f %s\n", d.name, layer[d.name], d.unit)
			}
		}
	}
	return nil
}

// printEndToEnd prints one workload's table: per metric and set the value
// (the median over the set's segments) with the segments behind it, and with
// several sets how far the sets' values lie apart.
func printEndToEnd(w *workload, perSet []map[string][]*segResult, bound map[string]float64) {
	failed := 0
	var lat []float64 // latencies of every ok reply, all sets and rounds
	values := make([]map[string][]float64, len(perSet))
	for s, segs := range perSet {
		values[s] = segmentValues(segs[w.name])
		for _, r := range segs[w.name] {
			failed += r.Failed
			lat = append(lat, r.LatMs...)
		}
	}
	fmt.Printf("\n%s   end to end, median of %d segments (failed requests: %d)\n", w.name, rounds, failed)
	if p := supportedTail(len(lat)); p > 0 {
		// Reported, not gated: tails move by a quarter and more from one set
		// to the next on this class of machine.
		fmt.Printf("  latency over %d ok replies: p50 %.3f ms, p%v %.3f ms (the highest percentile with ten samples beyond it)\n",
			len(lat), percentile(lat, 50), p, percentile(lat, p))
	}
	for _, d := range endToEnd {
		var meds []float64
		for s := range values {
			vs := values[s][d.name]
			q1, q3 := quartiles(vs)
			meds = append(meds, median(vs))
			fmt.Printf("  %-16s set %d  %12.5f %-4s  q1 %.5f q3 %.5f  segments %s\n",
				d.name, s+1, median(vs), d.unit, q1, q3, fmtValues(vs))
		}
		if len(meds) < 2 {
			continue
		}
		lo, hi := percentile(meds, 0), percentile(meds, 100)
		q1, q3 := quartiles(meds)
		diff, spread := (hi-lo)/lo, (q3-q1)/median(meds)
		verdict := "within"
		if diff > bound[d.name] {
			verdict = "OUTSIDE"
		}
		fmt.Printf("  %-16s set values differ by at most %.2f%% (quartiles %.2f%% of the median apart), %s the bound of %.0f%%\n",
			d.name, 100*diff, 100*spread, verdict, 100*bound[d.name])
	}
}

func fmtValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(parts, " ")
}

package obsv

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// escapeLabel escapes a label value per the Prometheus text format 0.0.4.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// labelString renders {k="v",...} for the given names/values, with optional
// extra (name, value) pairs appended (used for le/quantile).
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, n := range names {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(n + `="` + escapeLabel(values[i]) + `"`)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(extra[i] + `="` + escapeLabel(extra[i+1]) + `"`)
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus clients do: integral values
// without an exponent, everything else in shortest form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePromTo runs the registry's collectors and renders every family in
// Prometheus text exposition format 0.0.4. Families and series are emitted
// in sorted order so the output is deterministic (and golden-testable).
func (r *Registry) WritePromTo(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.collect()
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		// Snapshot the series list under the lock; cells themselves are
		// atomic so reading values afterwards is safe.
		r.mu.Lock()
		series := make([]*series, len(f.series))
		copy(series, f.series)
		r.mu.Unlock()
		sort.Slice(series, func(i, j int) bool {
			a, c := series[i].labels, series[j].labels
			for k := range a {
				if a[k] != c[k] {
					return a[k] < c[k]
				}
			}
			return false
		})

		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind.promType())
		for _, s := range series {
			ls := labelString(f.labelNames, s.labels)
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, ls, s.c.Value())
			case kindSecondsCounter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ls, formatFloat(float64(s.c.Value())/1e9))
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, ls, s.g.Value())
			case kindFloatGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ls, formatFloat(s.fg.Value()))
			case kindHistogram:
				bounds, cum := s.h.Buckets()
				for i, ub := range bounds {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						labelString(f.labelNames, s.labels, "le", fmt.Sprintf("%d", ub)), cum[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelString(f.labelNames, s.labels, "le", "+Inf"), s.h.Count())
				fmt.Fprintf(&b, "%s_sum%s %d\n", f.name, ls, s.h.Sum())
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, ls, s.h.Count())
			case kindSummary:
				qs, vals := s.q.Query()
				for i, q := range qs {
					fmt.Fprintf(&b, "%s%s %s\n", f.name,
						labelString(f.labelNames, s.labels, "quantile", formatFloat(q)),
						formatFloat(vals[i].Seconds()))
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, ls, formatFloat(s.q.Sum().Seconds()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, ls, s.q.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

package obsv

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteSummary renders the one-screen observability summary printed by
// `batchmaker -demo` and at serve-mode shutdown: request outcomes, the
// paper's queuing/computation latency split, the batch-occupancy
// histogram, and the top cell types by cells executed.
func (m *ServingMetrics) WriteSummary(w io.Writer) {
	if m == nil {
		fmt.Fprintln(w, "observability disabled")
		return
	}
	m.reg.collect()

	fmt.Fprintln(w, "── observability summary ──────────────────────────────")
	fmt.Fprintf(w, "requests: admitted=%d completed=%d failed=%d rejected=%d expired=%d cancelled=%d\n",
		m.Admitted.Value(), m.Completed.Value(), m.Failed.Value(),
		m.Rejected.Value(), m.Expired.Value(), m.Cancelled.Value())
	fmt.Fprintf(w, "faults:   recovered_panics=%d\n", m.PanicsTotal())

	_, qv := m.Queuing.Query()
	_, cv := m.Computation.Query()
	if m.Queuing.Count() > 0 {
		fmt.Fprintf(w, "latency split (windowed): queuing p50=%v p90=%v p99=%v | computation p50=%v p90=%v p99=%v\n",
			round(qv[0]), round(qv[1]), round(qv[2]), round(cv[0]), round(cv[1]), round(cv[2]))
	}

	if n := m.BatchOccupancy.Count(); n > 0 {
		fmt.Fprintf(w, "batch occupancy (%d tasks, padding waste %.1f%%):\n",
			n, 100*m.PaddingWaste.Value())
		bounds, cum := m.BatchOccupancy.Buckets()
		prev := int64(0)
		lo := int64(1)
		for i, ub := range bounds {
			cnt := cum[i] - prev
			prev = cum[i]
			if cnt > 0 {
				fmt.Fprintf(w, "  %4d-%-4d %6d %s\n", lo, ub, cnt, bar(cnt, n))
			}
			lo = ub + 1
		}
		if inf := n - prev; inf > 0 {
			fmt.Fprintf(w, "  %4d+     %6d %s\n", lo, inf, bar(inf, n))
		}
	}

	if stats := m.TypesByCells(); len(stats) > 0 {
		fmt.Fprintln(w, "top cell types by cells executed:")
		for i, s := range stats {
			if i == 5 {
				break
			}
			fmt.Fprintf(w, "  %-16s cells=%-9d tasks=%d\n", s.Key, s.Cells, s.Tasks)
		}
	}
	fmt.Fprintln(w, "───────────────────────────────────────────────────────")
}

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

func bar(count, total int64) string {
	const width = 30
	n := int(count * width / total)
	if n == 0 && count > 0 {
		n = 1
	}
	return strings.Repeat("█", n)
}

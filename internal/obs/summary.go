package obs

import (
	"io"
	"strconv"
)

// WriteSummary writes a compact human-readable digest of a run: the event
// counters, span latency percentiles, and the flame-graph-style cycle
// attribution (sorted by share, largest first).
//
// Like WritePrometheus this is the pooled path — one appendSummary pass
// into reusable scratch, one Write — differentially tested against a
// fmt-based reference kept in the tests.
func WriteSummary(w io.Writer, r *Recorder) error {
	m := r.Metrics()
	bp := exportScratch.Get().(*[]byte)
	buf := appendSummary((*bp)[:0], r, m)
	_, err := w.Write(buf)
	*bp = buf[:0]
	exportScratch.Put(bp)
	return err
}

// appendSummary renders the digest into b with no allocations beyond b's
// growth (the attribution sort runs over a fixed MaxKinds array).
func appendSummary(b []byte, r *Recorder, m *Metrics) []byte {
	b = append(b, "observability summary ("...)
	b = strconv.AppendInt(b, int64(r.Len()), 10)
	b = append(b, " events retained, "...)
	b = strconv.AppendUint(b, r.Dropped(), 10)
	b = append(b, " dropped, "...)
	b = strconv.AppendInt(b, int64(r.Shards()), 10)
	b = append(b, " shards)\n"...)
	if d := r.Dropped(); d > 0 {
		b = append(b, "  WARNING: trace ring overflowed; the oldest "...)
		b = strconv.AppendUint(b, d, 10)
		b = append(b, " events were evicted (raise the capacity or trim the workload)\n"...)
	}
	b = append(b, "  "...)
	b = appendPadStr(b, "event class", 18, true)
	b = append(b, ' ')
	b = appendPadStr(b, "count", 12, false)
	b = append(b, ' ')
	b = appendPadStr(b, "dropped", 12, false)
	b = append(b, '\n')
	for c := Class(0); c < NumClasses; c++ {
		if n := m.Count(c); n > 0 {
			b = append(b, "  "...)
			b = appendPadStr(b, c.String(), 18, true)
			b = append(b, ' ')
			b = appendPadUint(b, n, 12)
			b = append(b, ' ')
			b = appendPadUint(b, m.DroppedByClass(c), 12)
			b = append(b, '\n')
		}
	}

	header := false
	for c := Class(0); c < NumClasses; c++ {
		h := m.SpanHist(c)
		if h == nil || h.Count() == 0 {
			continue
		}
		if !header {
			b = append(b, "  "...)
			b = appendPadStr(b, "span (cycles)", 18, true)
			b = append(b, ' ')
			b = appendPadStr(b, "count", 10, false)
			b = append(b, ' ')
			b = appendPadStr(b, "mean", 10, false)
			b = append(b, ' ')
			b = appendPadStr(b, "p50", 10, false)
			b = append(b, ' ')
			b = appendPadStr(b, "p95", 10, false)
			b = append(b, ' ')
			b = appendPadStr(b, "p99", 10, false)
			b = append(b, '\n')
			header = true
		}
		b = append(b, "  "...)
		b = appendPadStr(b, c.String(), 18, true)
		b = append(b, ' ')
		b = appendPadUint(b, h.Count(), 10)
		b = append(b, ' ')
		b = appendPadFloat(b, h.Mean(), 10, 0)
		b = append(b, ' ')
		b = appendPadUint(b, h.Quantile(0.5), 10)
		b = append(b, ' ')
		b = appendPadUint(b, h.Quantile(0.95), 10)
		b = append(b, ' ')
		b = appendPadUint(b, h.Quantile(0.99), 10)
		b = append(b, '\n')
	}

	if h := m.RequestHistAll(); h != nil && h.Count() > 0 {
		b = append(b, "  request latency (root spans, virtual cycles): n="...)
		b = appendLatQuad(b, h)
		for v := 0; v < m.VCPUs(); v++ {
			if hv := m.RequestHist(v); hv != nil && hv.Count() > 0 && m.VCPUs() > 1 {
				b = append(b, "    vcpu "...)
				b = strconv.AppendInt(b, int64(v), 10)
				b = append(b, ": n="...)
				b = appendLatQuad(b, hv)
			}
		}
	}
	for s := 0; s < MaxServices; s++ {
		if h := m.ServiceHist(s); h != nil && h.Count() > 0 {
			name := m.ServiceName(s)
			b = append(b, "  service "...)
			if name == "" {
				// The synthetic fallback never exceeds the pad width, so pad
				// manually: "service-N" is 9 runes, width 12.
				b = append(b, "service-"...)
				b = strconv.AppendInt(b, int64(s), 10)
				b = append(b, "   "...)
			} else {
				b = appendPadStr(b, name, 12, true)
			}
			b = append(b, " dispatch latency: n="...)
			b = appendLatQuad(b, h)
		}
	}

	var total uint64
	for _, v := range m.kindCycles {
		total += v
	}
	if total > 0 {
		b = append(b, "  cycle attribution ("...)
		b = strconv.AppendUint(b, total, 10)
		b = append(b, " total):\n"...)
		type row struct {
			name   string
			cycles uint64
		}
		var rows [MaxKinds]row
		n := 0
		for k := 0; k < m.NumKinds() && k < MaxKinds; k++ {
			if m.kindCycles[k] > 0 {
				rows[n] = row{m.KindName(k), m.kindCycles[k]}
				n++
			}
		}
		// Stable insertion sort by cycles descending, over at most MaxKinds
		// entries — sort.SliceStable would allocate its reflect closure.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && rows[j-1].cycles < rows[j].cycles; j-- {
				rows[j-1], rows[j] = rows[j], rows[j-1]
			}
		}
		for i := 0; i < n; i++ {
			b = append(b, "    "...)
			b = appendPadStr(b, rows[i].name, 16, true)
			b = append(b, ' ')
			b = appendPadUint(b, rows[i].cycles, 14)
			b = append(b, "  "...)
			b = appendPadFloat(b, 100*float64(rows[i].cycles)/float64(total), 5, 1)
			b = append(b, "%\n"...)
		}
	}
	return b
}

// appendLatQuad appends the shared "<n> p50=<v> p90=<v> p99=<v>\n" tail of
// the latency digest lines.
func appendLatQuad(b []byte, h *Histogram) []byte {
	b = strconv.AppendUint(b, h.Count(), 10)
	b = append(b, " p50="...)
	b = strconv.AppendUint(b, h.Quantile(0.5), 10)
	b = append(b, " p90="...)
	b = strconv.AppendUint(b, h.Quantile(0.9), 10)
	b = append(b, " p99="...)
	b = strconv.AppendUint(b, h.Quantile(0.99), 10)
	return append(b, '\n')
}

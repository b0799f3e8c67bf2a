package obs

import (
	"io"
	"strconv"
)

// WritePrometheus writes the metrics registries of one machine or a
// fleet in the Prometheus text exposition format (version 0.0.4): event
// counters per class, span duration summaries (p50/p95/p99 over virtual
// cycles), service, request and ring latency summaries, the per-cost-kind
// cycle-attribution table, the producer's aux counters and gauges, and the
// trace drop counters. A single machine is a fleet of one: every series
// carries machine="<id>" as its first label, each family lists its
// machines in slice order, and output order is otherwise fixed, so
// identical runs expose byte-identical pages.
//
// This is the pooled hot path: the page is formatted into reusable
// scratch by appendPrometheus and written in one call. The tests hold a
// fmt-based reference implementation it must match byte for byte.
func WritePrometheus(w io.Writer, recs ...*Recorder) error {
	if err := validateFleet(recs); err != nil {
		return err
	}
	// Fixed-size backing keeps the snapshot list off the heap for the
	// usual handful of machines.
	var backing [8]*Metrics
	ms := backing[:0]
	for _, r := range recs {
		ms = append(ms, r.Metrics())
	}
	bp := exportScratch.Get().(*[]byte)
	buf := appendPrometheus((*bp)[:0], recs, ms)
	_, err := w.Write(buf)
	*bp = buf[:0]
	exportScratch.Put(bp)
	return err
}

// promQuantile is one pre-rendered `,quantile="…"} ` label fragment.
// Span summaries use p95, the latency summaries p90.
type promQuantile struct {
	frag string
	q    float64
}

var (
	promSpanQuantiles = [3]promQuantile{{`,quantile="0.5"} `, 0.5}, {`,quantile="0.95"} `, 0.95}, {`,quantile="0.99"} `, 0.99}}
	promLatQuantiles  = [3]promQuantile{{`,quantile="0.5"} `, 0.5}, {`,quantile="0.9"} `, 0.9}, {`,quantile="0.99"} `, 0.99}}
)

// appendPrometheus renders the full exposition page into b; ms[i] is
// recs[i]'s metrics snapshot. It allocates nothing beyond b's own growth
// (the zero-alloc pin in the tests), which is what lets WritePrometheus
// run allocation-free from pooled scratch.
func appendPrometheus(b []byte, recs []*Recorder, ms []*Metrics) []byte {
	b = append(b, "# HELP veil_events_total Events recorded per class.\n# TYPE veil_events_total counter\n"...)
	for i, m := range ms {
		for c := Class(0); c < NumClasses; c++ {
			b = appendValue(appendClassSeries(b, "veil_events_total", "", recs[i], c), "} ", m.Count(c))
		}
	}

	b = append(b, "# HELP veil_span_cycles Span durations in virtual cycles.\n# TYPE veil_span_cycles summary\n"...)
	for i, m := range ms {
		for c := Class(0); c < NumClasses; c++ {
			if h := m.SpanHist(c); h != nil && h.Count() > 0 {
				b = appendSummaryLines(b, &promSpanQuantiles, h, func(b []byte, suffix string) []byte {
					return appendClassSeries(b, "veil_span_cycles", suffix, recs[i], c)
				})
			}
		}
	}

	b = append(b, "# HELP veil_service_latency_cycles Protected-service dispatch latency in virtual cycles.\n# TYPE veil_service_latency_cycles summary\n"...)
	for i, m := range ms {
		for s := 0; s < MaxServices; s++ {
			if h := m.ServiceHist(s); h != nil && h.Count() > 0 {
				name := m.ServiceName(s)
				b = appendSummaryLines(b, &promLatQuantiles, h, func(b []byte, suffix string) []byte {
					b = append(appendSeries(b, "veil_service_latency_cycles", suffix, recs[i]), ",service="...)
					return appendServiceName(b, name, s)
				})
			}
		}
	}

	b = append(b, "# HELP veil_request_latency_cycles Root-span (per-request) latency per VCPU in virtual cycles.\n# TYPE veil_request_latency_cycles summary\n"...)
	for i, m := range ms {
		b = appendVCPUSummary(b, recs[i], m, "veil_request_latency_cycles", (*Metrics).RequestHist)
	}

	b = append(b, "# HELP veil_ring_latency_cycles Batched-ring submit-to-completion latency per VCPU in virtual cycles.\n# TYPE veil_ring_latency_cycles summary\n"...)
	for i, m := range ms {
		b = appendVCPUSummary(b, recs[i], m, "veil_ring_latency_cycles", (*Metrics).RingLatHist)
	}

	b = append(b, "# HELP veil_cycles_total Virtual cycles attributed per cost kind.\n# TYPE veil_cycles_total counter\n"...)
	for i, m := range ms {
		for k := 0; k < m.NumKinds() && k < MaxKinds; k++ {
			b = append(appendSeries(b, "veil_cycles_total", "", recs[i]), ",kind="...)
			b = appendValue(appendQuoted(b, m.KindName(k)), "} ", m.kindCycles[k])
		}
	}

	// The aux families appear once any machine registered a source; each
	// machine's sources are read exactly once per page.
	header := false
	for _, r := range recs {
		names, values := r.AuxCounters()
		if len(names) > 0 && !header {
			b = append(b, "# HELP veil_aux_total Producer-registered auxiliary counters.\n# TYPE veil_aux_total counter\n"...)
			header = true
		}
		for i, n := range names {
			if i < len(values) {
				b = append(appendSeries(b, "veil_aux_total", "", r), ",counter="...)
				b = appendValue(appendQuoted(b, n), "} ", values[i])
			}
		}
	}

	header = false
	for _, r := range recs {
		names, values := r.AuxGauges()
		if len(names) > 0 && !header {
			b = append(b, "# HELP veil_aux_gauge Producer-registered derived gauges (rates, ratios).\n# TYPE veil_aux_gauge gauge\n"...)
			header = true
		}
		for i, n := range names {
			if i < len(values) {
				b = append(appendSeries(b, "veil_aux_gauge", "", r), ",gauge="...)
				b = append(appendQuoted(b, n), "} "...)
				b = append(strconv.AppendFloat(b, values[i], 'f', 6, 64), '\n')
			}
		}
	}

	b = append(b, "# HELP veil_trace_dropped_total Events evicted from the trace ring.\n# TYPE veil_trace_dropped_total counter\n"...)
	for _, r := range recs {
		b = appendValue(appendSeries(b, "veil_trace_dropped_total", "", r), "} ", r.Dropped())
	}

	b = append(b, "# HELP veil_trace_dropped_by_class_total Events evicted from the trace ring, per class.\n# TYPE veil_trace_dropped_by_class_total counter\n"...)
	for i, m := range ms {
		for c := Class(0); c < NumClasses; c++ {
			if n := m.DroppedByClass(c); n > 0 {
				b = appendValue(appendClassSeries(b, "veil_trace_dropped_by_class_total", "", recs[i], c), "} ", n)
			}
		}
	}
	return b
}

// appendSeries opens a series line up to its first label:
// `<metric><suffix>{machine="<id>"`. Other labels follow with a leading
// comma; appendValue closes the line.
func appendSeries(b []byte, metric, suffix string, r *Recorder) []byte {
	b = append(b, metric...)
	b = append(b, suffix...)
	b = append(b, `{machine="`...)
	b = strconv.AppendInt(b, int64(r.Machine()), 10)
	return append(b, '"')
}

// appendClassSeries opens a series labeled with the machine and class c.
func appendClassSeries(b []byte, metric, suffix string, r *Recorder, c Class) []byte {
	b = append(appendSeries(b, metric, suffix, r), ",class="...)
	return append(b, classQuoted[c]...)
}

// appendValue closes a series line: sep (`} ` or a quantile fragment),
// the value and the newline.
func appendValue(b []byte, sep string, v uint64) []byte {
	b = append(b, sep...)
	return append(strconv.AppendUint(b, v, 10), '\n')
}

// appendSummaryLines renders one summary: its three quantile lines, then
// _sum and _count. open appends the series name with the given suffix
// and every label but the quantile.
func appendSummaryLines(b []byte, qs *[3]promQuantile, h *Histogram, open func(b []byte, suffix string) []byte) []byte {
	for _, q := range qs {
		b = appendValue(open(b, ""), q.frag, h.Quantile(q.q))
	}
	b = appendValue(open(b, "_sum"), "} ", h.Sum())
	return appendValue(open(b, "_count"), "} ", h.Count())
}

// appendServiceName appends the quoted service label, falling back to the
// synthetic "service-N" for unnamed ids exactly like the reference page.
func appendServiceName(b []byte, name string, s int) []byte {
	if name == "" {
		b = append(b, `"service-`...)
		b = strconv.AppendInt(b, int64(s), 10)
		return append(b, '"')
	}
	return appendQuoted(b, name)
}

// appendVCPUSummary renders one per-VCPU latency summary family (the
// request and ring sections share the exact same shape).
func appendVCPUSummary(b []byte, r *Recorder, m *Metrics, metric string, hist func(*Metrics, int) *Histogram) []byte {
	for v := 0; v < m.VCPUs(); v++ {
		if h := hist(m, v); h != nil && h.Count() > 0 {
			b = appendSummaryLines(b, &promLatQuantiles, h, func(b []byte, suffix string) []byte {
				b = append(appendSeries(b, metric, suffix, r), `,vcpu="`...)
				return append(strconv.AppendInt(b, int64(v), 10), '"')
			})
		}
	}
	return b
}

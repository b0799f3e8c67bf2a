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
func WritePrometheus(w io.Writer, recs ...*Recorder) error {
	if err := validateFleet(recs); err != nil {
		return err
	}
	bw := &errWriter{w: w}
	ms := make([]*Metrics, len(recs))
	for i, r := range recs {
		ms[i] = r.Metrics()
	}
	type quantile struct {
		label string
		q     float64
	}
	spanQ := []quantile{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}}
	latQ := []quantile{{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}}

	bw.printf("# HELP veil_events_total Events recorded per class.\n")
	bw.printf("# TYPE veil_events_total counter\n")
	for i, m := range ms {
		for c := Class(0); c < NumClasses; c++ {
			bw.printf("veil_events_total{machine=\"%d\",class=%q} %d\n", recs[i].Machine(), c.String(), m.Count(c))
		}
	}

	bw.printf("# HELP veil_span_cycles Span durations in virtual cycles.\n")
	bw.printf("# TYPE veil_span_cycles summary\n")
	for i, m := range ms {
		id := recs[i].Machine()
		for c := Class(0); c < NumClasses; c++ {
			h := m.SpanHist(c)
			if h == nil || h.Count() == 0 {
				continue
			}
			for _, q := range spanQ {
				bw.printf("veil_span_cycles{machine=\"%d\",class=%q,quantile=%q} %d\n", id, c.String(), q.label, h.Quantile(q.q))
			}
			bw.printf("veil_span_cycles_sum{machine=\"%d\",class=%q} %d\n", id, c.String(), h.Sum())
			bw.printf("veil_span_cycles_count{machine=\"%d\",class=%q} %d\n", id, c.String(), h.Count())
		}
	}

	bw.printf("# HELP veil_service_latency_cycles Protected-service dispatch latency in virtual cycles.\n")
	bw.printf("# TYPE veil_service_latency_cycles summary\n")
	for i, m := range ms {
		id := recs[i].Machine()
		for s := 0; s < MaxServices; s++ {
			h := m.ServiceHist(s)
			if h == nil || h.Count() == 0 {
				continue
			}
			name := m.ServiceName(s)
			if name == "" {
				name = "service-" + strconv.Itoa(s)
			}
			for _, q := range latQ {
				bw.printf("veil_service_latency_cycles{machine=\"%d\",service=%q,quantile=%q} %d\n", id, name, q.label, h.Quantile(q.q))
			}
			bw.printf("veil_service_latency_cycles_sum{machine=\"%d\",service=%q} %d\n", id, name, h.Sum())
			bw.printf("veil_service_latency_cycles_count{machine=\"%d\",service=%q} %d\n", id, name, h.Count())
		}
	}

	for _, fam := range []struct {
		metric, help string
		hist         func(*Metrics, int) *Histogram
	}{
		{"veil_request_latency_cycles", "Root-span (per-request) latency per VCPU in virtual cycles.", (*Metrics).RequestHist},
		{"veil_ring_latency_cycles", "Batched-ring submit-to-completion latency per VCPU in virtual cycles.", (*Metrics).RingLatHist},
	} {
		bw.printf("# HELP %s %s\n", fam.metric, fam.help)
		bw.printf("# TYPE %s summary\n", fam.metric)
		for i, m := range ms {
			id := recs[i].Machine()
			for v := 0; v < m.VCPUs(); v++ {
				h := fam.hist(m, v)
				if h == nil || h.Count() == 0 {
					continue
				}
				for _, q := range latQ {
					bw.printf("%s{machine=\"%d\",vcpu=\"%d\",quantile=%q} %d\n", fam.metric, id, v, q.label, h.Quantile(q.q))
				}
				bw.printf("%s_sum{machine=\"%d\",vcpu=\"%d\"} %d\n", fam.metric, id, v, h.Sum())
				bw.printf("%s_count{machine=\"%d\",vcpu=\"%d\"} %d\n", fam.metric, id, v, h.Count())
			}
		}
	}

	bw.printf("# HELP veil_cycles_total Virtual cycles attributed per cost kind.\n")
	bw.printf("# TYPE veil_cycles_total counter\n")
	for i, m := range ms {
		byKind := m.CyclesByKind()
		for k := 0; k < m.NumKinds() && k < len(byKind); k++ {
			bw.printf("veil_cycles_total{machine=\"%d\",kind=%q} %d\n", recs[i].Machine(), m.KindName(k), byKind[k])
		}
	}

	header := false
	for _, r := range recs {
		names, values := r.AuxCounters()
		if len(names) > 0 && !header {
			bw.printf("# HELP veil_aux_total Producer-registered auxiliary counters.\n")
			bw.printf("# TYPE veil_aux_total counter\n")
			header = true
		}
		for i, n := range names {
			if i < len(values) {
				bw.printf("veil_aux_total{machine=\"%d\",counter=%q} %d\n", r.Machine(), n, values[i])
			}
		}
	}

	header = false
	for _, r := range recs {
		names, values := r.AuxGauges()
		if len(names) > 0 && !header {
			bw.printf("# HELP veil_aux_gauge Producer-registered derived gauges (rates, ratios).\n")
			bw.printf("# TYPE veil_aux_gauge gauge\n")
			header = true
		}
		for i, n := range names {
			if i < len(values) {
				bw.printf("veil_aux_gauge{machine=\"%d\",gauge=%q} %s\n", r.Machine(), n, strconv.FormatFloat(values[i], 'f', 6, 64))
			}
		}
	}

	bw.printf("# HELP veil_trace_dropped_total Events evicted from the trace ring.\n")
	bw.printf("# TYPE veil_trace_dropped_total counter\n")
	for _, r := range recs {
		bw.printf("veil_trace_dropped_total{machine=\"%d\"} %d\n", r.Machine(), r.Dropped())
	}

	bw.printf("# HELP veil_trace_dropped_by_class_total Events evicted from the trace ring, per class.\n")
	bw.printf("# TYPE veil_trace_dropped_by_class_total counter\n")
	for i, m := range ms {
		for c := Class(0); c < NumClasses; c++ {
			if n := m.DroppedByClass(c); n > 0 {
				bw.printf("veil_trace_dropped_by_class_total{machine=\"%d\",class=%q} %d\n", recs[i].Machine(), c.String(), n)
			}
		}
	}
	return bw.err
}

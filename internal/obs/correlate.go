package obs

import "sort"

// Fleet evidence correlation: joining DeniedChannel (and any other
// denial) evidence across machines by trace context. The join needs only
// event slices — flight-recorder tails work as well as full trace rings —
// so attack suites can correlate evidence from the small always-on rings.
//
// The join rule mirrors how chn emits events: a NetRx breadcrumb lands
// under the delivery invocation's span before the frame is handled, so a
// ClassDenied recorded while handling that same frame shares the NetRx's
// Parent. Mapping span → trace via the NetRx events therefore attributes
// each denial to the trace whose frame provoked it.

// MachineEvents is one machine's evidence stream (its flight tail or
// recorder events, in record order).
type MachineEvents struct {
	Machine int
	Events  []Event
}

// TraceLeg is one machine's view of one trace: the breadcrumbs it sent
// and received carrying the trace ref, and every denial provoked while
// handling the trace's frames.
type TraceLeg struct {
	Machine  int
	Sent     int // NetTx events carrying the trace
	Received int // NetRx events carrying the trace
	Denied   []Event
}

// TraceEvidence is the fleet-wide evidence for one trace, one leg per
// machine that observed it.
type TraceEvidence struct {
	Trace         uint64
	OriginMachine int
	OriginSpan    uint64
	Legs          []TraceLeg
}

// Leg returns the leg for one machine, or nil if the machine never
// observed the trace.
func (t *TraceEvidence) Leg(machine int) *TraceLeg {
	for i := range t.Legs {
		if t.Legs[i].Machine == machine {
			return &t.Legs[i]
		}
	}
	return nil
}

// CorrelateFleetEvidence joins each machine's evidence stream into
// per-trace views: traces ascending, legs in ascending machine order, so
// the result is deterministic regardless of input slice order.
func CorrelateFleetEvidence(ms []MachineEvents) []TraceEvidence {
	type legKey struct {
		trace   uint64
		machine int
	}
	legs := make(map[legKey]*TraceLeg)
	leg := func(trace uint64, machine int) *TraceLeg {
		k := legKey{trace, machine}
		l, ok := legs[k]
		if !ok {
			l = &TraceLeg{Machine: machine}
			legs[k] = l
		}
		return l
	}
	for _, m := range ms {
		// spanTrace maps a local delivery span to the trace whose frame it
		// is handling, built from the NetRx breadcrumbs in stream order.
		spanTrace := make(map[uint64]uint64)
		for _, e := range m.Events {
			switch e.Class {
			case ClassNetTx:
				if e.Arg1 != 0 {
					leg(e.Arg1, m.Machine).Sent++
				}
			case ClassNetRx:
				if e.Arg1 != 0 {
					leg(e.Arg1, m.Machine).Received++
					if e.Parent != 0 {
						spanTrace[e.Parent] = e.Arg1
					}
				}
			case ClassDenied:
				if t, ok := spanTrace[e.Parent]; ok && e.Parent != 0 {
					l := leg(t, m.Machine)
					l.Denied = append(l.Denied, e)
				}
			}
		}
	}
	byTrace := make(map[uint64][]TraceLeg)
	for k, l := range legs {
		byTrace[k.trace] = append(byTrace[k.trace], *l)
	}
	traces := make([]uint64, 0, len(byTrace))
	for t := range byTrace {
		traces = append(traces, t)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i] < traces[j] })
	out := make([]TraceEvidence, 0, len(traces))
	for _, t := range traces {
		om, os := UnpackTraceRef(t)
		ev := TraceEvidence{Trace: t, OriginMachine: om, OriginSpan: os, Legs: byTrace[t]}
		sort.Slice(ev.Legs, func(i, j int) bool { return ev.Legs[i].Machine < ev.Legs[j].Machine })
		out = append(out, ev)
	}
	return out
}

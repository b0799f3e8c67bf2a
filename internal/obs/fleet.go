package obs

import (
	"errors"
	"fmt"
	"sort"
)

// Fleet-wide causal analysis (obs v4). Per-machine recorders carry NetTx
// and NetRx breadcrumbs whose Arg1/Arg2 are machine-qualified trace refs
// (PackTraceRef): the pair is identical on both ends of one wire hop, so
// the senders' and receivers' events join into cross-machine edges. Wire
// time — the receiver's arrival stamp minus the sender's departure stamp
// on the shared virtual fleet clock — shows up as its own quantity,
// charged to neither machine.

// validateFleet rejects recorder slices an export would mangle: nothing
// to export, nil entries, or two recorders claiming the same machine id
// (which would silently interleave their tracks and series). A recorder
// never tagged via SetMachine is machine 0, so it collides with a tagged
// machine 0 exactly like two tagged ones would. Fleets are small, so the
// duplicate scan is quadratic rather than a map.
func validateFleet(recs []*Recorder) error {
	if len(recs) == 0 {
		return errors.New("obs: export needs at least one recorder")
	}
	for i, r := range recs {
		if r == nil {
			return fmt.Errorf("obs: recorder %d is nil", i)
		}
		for _, prev := range recs[:i] {
			if prev.Machine() == r.Machine() {
				return fmt.Errorf("obs: duplicate machine id %d in export", r.Machine())
			}
		}
	}
	return nil
}

// machineEvents copies each recorder's retained events once, so one
// export reads every event stream without re-copying it per helper.
func machineEvents(recs []*Recorder) []MachineEvents {
	ms := make([]MachineEvents, len(recs))
	for i, r := range recs {
		ms[i] = MachineEvents{Machine: r.Machine(), Events: r.Events()}
	}
	return ms
}

// FleetEdge is one matched cross-machine hop: a NetTx on the source
// machine paired with the NetRx carrying the same (trace, span) context
// on the destination machine.
type FleetEdge struct {
	// Trace is the packed origin ref the frame carried (UnpackTraceRef
	// yields the originating machine and its root span).
	Trace uint64
	// SrcMachine/SrcSpan locate the sending service invocation; SrcTS is
	// the departure stamp on the fleet clock.
	SrcMachine int
	SrcSpan    uint64
	SrcTS      uint64
	// DstMachine/DstSpan locate the delivery invocation that received the
	// frame (the NetRx's parent span); DstTS is the arrival stamp.
	DstMachine int
	DstSpan    uint64
	DstTS      uint64
	// WireCycles is DstTS−SrcTS (clamped at zero): fabric latency plus
	// receiver-side queueing, charged to neither machine's ledger.
	WireCycles uint64
}

// FleetEdges is the matched cross-machine hop set of a fleet run.
type FleetEdges struct {
	Edges []FleetEdge
	// UnmatchedRx counts NetRx events whose sending NetTx was not in any
	// recorder (evicted from the sender's ring, or an injected frame).
	UnmatchedRx int
	// UnmatchedTx counts NetTx events no NetRx ever answered (the frame
	// was dropped in flight, or the receiver's breadcrumb was evicted).
	UnmatchedTx int
}

type fleetTxPoint struct {
	machine int
	ts      uint64
	vcpu    int32
	matched bool
}

// fleetTxIndex collects every NetTx across the fleet keyed by its
// (trace, ctx-span) pair. Each sender invocation transmits at most one
// frame, so the pair identifies at most one NetTx fleet-wide.
func fleetTxIndex(ms []MachineEvents) map[[2]uint64]*fleetTxPoint {
	idx := make(map[[2]uint64]*fleetTxPoint)
	for _, m := range ms {
		for _, e := range m.Events {
			if e.Class == ClassNetTx {
				idx[[2]uint64{e.Arg1, e.Arg2}] = &fleetTxPoint{machine: m.Machine, ts: e.TS, vcpu: e.VCPU}
			}
		}
	}
	return idx
}

// BuildFleetEdges validates the recorder slice and matches NetTx/NetRx
// breadcrumbs into cross-machine edges. Edges follow the recorder slice
// order and each recorder's event order, so the result is deterministic.
func BuildFleetEdges(recs []*Recorder) (*FleetEdges, error) {
	if err := validateFleet(recs); err != nil {
		return nil, err
	}
	ms := machineEvents(recs)
	return buildFleetEdges(ms), nil
}

func buildFleetEdges(ms []MachineEvents) *FleetEdges {
	txs := fleetTxIndex(ms)
	out := &FleetEdges{}
	for _, m := range ms {
		for _, e := range m.Events {
			if e.Class != ClassNetRx {
				continue
			}
			tx, ok := txs[[2]uint64{e.Arg1, e.Arg2}]
			if !ok {
				out.UnmatchedRx++
				continue
			}
			tx.matched = true
			_, srcSpan := UnpackTraceRef(e.Arg2)
			edge := FleetEdge{
				Trace:      e.Arg1,
				SrcMachine: tx.machine,
				SrcSpan:    srcSpan,
				SrcTS:      tx.ts,
				DstMachine: m.Machine,
				DstSpan:    e.Parent,
				DstTS:      e.TS,
			}
			if e.TS > tx.ts {
				edge.WireCycles = e.TS - tx.ts
			}
			out.Edges = append(out.Edges, edge)
		}
	}
	for _, tx := range txs {
		if !tx.matched {
			out.UnmatchedTx++
		}
	}
	return out
}

// FleetRequest is the fleet-wide critical path of one trace: every wire
// hop carrying its trace ref, the machines it touched, and where its
// cycles went — per machine, plus the wire share charged to neither.
type FleetRequest struct {
	// Trace is the packed origin ref; OriginMachine/OriginSpan unpack it.
	Trace         uint64
	OriginMachine int
	OriginSpan    uint64
	// Machines lists the distinct machines the trace touched, ascending;
	// MachineCycles[i] is the summed duration of machine Machines[i]'s
	// distinct endpoint spans.
	Machines      []int
	MachineCycles []uint64
	// Hops counts matched wire crossings; WireCycles sums their latency.
	Hops       int
	WireCycles uint64
	// Total is machine cycles plus wire cycles: end-to-end critical-path
	// volume attributable to this trace.
	Total uint64
}

// FleetCriticalPaths groups the fleet's matched edges by trace and
// computes each trace's cross-machine breakdown, ordered by trace ref.
func FleetCriticalPaths(recs []*Recorder) ([]FleetRequest, *FleetEdges, error) {
	if err := validateFleet(recs); err != nil {
		return nil, nil, err
	}
	ms := machineEvents(recs)
	edges := buildFleetEdges(ms)
	return fleetCriticalPaths(ms, edges), edges, nil
}

func fleetCriticalPaths(ms []MachineEvents, edges *FleetEdges) []FleetRequest {
	// Span durations come from each machine's retained span events.
	durs := make(map[int]map[uint64]uint64, len(ms))
	for _, m := range ms {
		d := make(map[uint64]uint64)
		for _, e := range m.Events {
			if e.Kind == Span && e.Span != 0 {
				d[e.Span] = e.Dur
			}
		}
		durs[m.Machine] = d
	}
	byTrace := make(map[uint64][]FleetEdge)
	for _, e := range edges.Edges {
		byTrace[e.Trace] = append(byTrace[e.Trace], e)
	}
	traces := make([]uint64, 0, len(byTrace))
	for t := range byTrace {
		traces = append(traces, t)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i] < traces[j] })

	var out []FleetRequest
	for _, t := range traces {
		hops := byTrace[t]
		om, os := UnpackTraceRef(t)
		req := FleetRequest{Trace: t, OriginMachine: om, OriginSpan: os, Hops: len(hops)}
		type endpoint struct {
			machine int
			span    uint64
		}
		seen := make(map[endpoint]bool)
		perMachine := make(map[int]uint64)
		for _, e := range hops {
			req.WireCycles += e.WireCycles
			for _, ep := range []endpoint{{e.SrcMachine, e.SrcSpan}, {e.DstMachine, e.DstSpan}} {
				if ep.span == 0 || seen[ep] {
					continue
				}
				seen[ep] = true
				if _, ok := perMachine[ep.machine]; !ok {
					perMachine[ep.machine] = 0
				}
				perMachine[ep.machine] += durs[ep.machine][ep.span]
			}
		}
		for m := range perMachine {
			req.Machines = append(req.Machines, m)
		}
		sort.Ints(req.Machines)
		for _, m := range req.Machines {
			req.MachineCycles = append(req.MachineCycles, perMachine[m])
			req.Total += perMachine[m]
		}
		req.Total += req.WireCycles
		out = append(out, req)
	}
	return out
}

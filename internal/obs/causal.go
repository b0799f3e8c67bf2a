package obs

import (
	"io"
	"strconv"
)

// This file turns the flat event ring into the request trees the spans
// encode: every span-bearing event (a VMGEXIT round trip, a syscall, a
// domain switch, a service invocation) is a node, every event's Parent
// link is an edge, and each root is one logical request. The builder is
// pure over the recorded slice, so the export is as deterministic as the
// ring itself.

// CausalNode is one event in a request tree.
type CausalNode struct {
	Event    Event
	Children []*CausalNode
}

// CausalForest is the set of request trees recovered from a trace.
type CausalForest struct {
	// Roots are the top-level nodes (Parent == 0, or parent evicted), in
	// record order.
	Roots []*CausalNode
	// Orphans counts events whose parent span was evicted from the ring
	// before export; they are promoted to roots so no event is lost.
	Orphans int
}

// BuildCausalForest links events into request trees by their span IDs.
// Children keep record order. Events recorded before their parent span's
// completion event (spans are stamped when they end) still attach
// correctly: linking happens after all span nodes are indexed.
func BuildCausalForest(events []Event) *CausalForest {
	nodes := make([]*CausalNode, len(events))
	bySpan := make(map[uint64]*CausalNode, len(events))
	for i, e := range events {
		n := &CausalNode{Event: e}
		nodes[i] = n
		if e.Span != 0 {
			bySpan[e.Span] = n
		}
	}
	f := &CausalForest{}
	for _, n := range nodes {
		if p := n.Event.Parent; p != 0 {
			if parent, ok := bySpan[p]; ok && parent != n {
				parent.Children = append(parent.Children, n)
				continue
			}
			f.Orphans++
		}
		f.Roots = append(f.Roots, n)
	}
	return f
}

// ClassCycles is one per-class line of a request's critical-path
// breakdown: the summed durations of the request's descendant spans of
// that class.
type ClassCycles struct {
	Class  Class
	Cycles uint64
	Count  int
}

// RequestPath is the critical-path breakdown of one request tree: where
// the root span's cycles went, class by class, with the remainder
// attributed to the root itself.
type RequestPath struct {
	Root    uint64 // root span ID
	Class   Class
	Arg1    uint64 // the root's class-specific tag (exit code, sysno, ...)
	Total   uint64 // root span duration in virtual cycles
	Self    uint64 // Total minus direct-child span cycles (clamped)
	ByClass []ClassCycles
	Events  int // total events in the tree, root included
}

// CriticalPaths computes a breakdown for every root that is a span.
// Child cycles are summed over direct children only — each nesting level
// accounts its own self time, so a domain switch inside a round trip
// inside a syscall is not double-counted at the syscall line.
func CriticalPaths(f *CausalForest) []RequestPath {
	var out []RequestPath
	for _, root := range f.Roots {
		if root.Event.Kind != Span || root.Event.Span == 0 {
			continue
		}
		p := RequestPath{
			Root:  root.Event.Span,
			Class: root.Event.Class,
			Arg1:  root.Event.Arg1,
			Total: root.Event.Dur,
		}
		var perClass [NumClasses]ClassCycles
		var childCycles uint64
		for _, c := range root.Children {
			if c.Event.Kind == Span {
				perClass[c.Event.Class].Cycles += c.Event.Dur
				childCycles += c.Event.Dur
			}
			perClass[c.Event.Class].Count++
		}
		for cl := Class(0); cl < NumClasses; cl++ {
			if perClass[cl].Count > 0 || perClass[cl].Cycles > 0 {
				perClass[cl].Class = cl
				p.ByClass = append(p.ByClass, perClass[cl])
			}
		}
		if childCycles < p.Total {
			p.Self = p.Total - childCycles
		}
		p.Events = countNodes(root)
		out = append(out, p)
	}
	return out
}

func countNodes(n *CausalNode) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// WriteCausalTrace writes the request view of one machine or a fleet as
// deterministic JSON. "machines" holds, per recorder in slice order, the
// machine's digest, its request trees in record order and their
// critical-path breakdowns. The fleet-wide part follows: every matched
// cross-machine wire edge, the NetRx/NetTx breadcrumbs that failed to
// join, and the per-trace fleet critical paths with wire time reported as
// its own component, charged to neither machine (all empty for a single
// machine). Byte-identical output for identical runs.
func WriteCausalTrace(w io.Writer, recs ...*Recorder) error {
	if err := validateFleet(recs); err != nil {
		return err
	}
	ms, release := machineEvents(recs)
	defer release()
	edges := buildFleetEdges(ms)
	reqs := fleetCriticalPaths(ms, edges)

	bw := &errWriter{w: w}
	bw.printf("{\n  \"machines\": [")
	for i, m := range ms {
		if i > 0 {
			bw.printf(",")
		}
		writeCausalMachine(bw, recs[i], m.Events)
	}
	bw.printf("\n  ],\n  \"unmatched_rx\": %d,\n  \"unmatched_tx\": %d,\n", edges.UnmatchedRx, edges.UnmatchedTx)
	bw.printf("  \"edges\": [")
	for i, e := range edges.Edges {
		if i > 0 {
			bw.printf(",")
		}
		bw.printf("\n    {\"trace\":%d,\"src_machine\":%d,\"src_span\":%d,\"src_ts\":%d,\"dst_machine\":%d,\"dst_span\":%d,\"dst_ts\":%d,\"wire_cycles\":%d}",
			e.Trace, e.SrcMachine, e.SrcSpan, e.SrcTS, e.DstMachine, e.DstSpan, e.DstTS, e.WireCycles)
	}
	bw.printf("\n  ],\n  \"fleet_critical_paths\": [")
	for i, q := range reqs {
		if i > 0 {
			bw.printf(",")
		}
		bw.printf("\n    {\"trace\":%d,\"origin_machine\":%d,\"origin_span\":%d,\"hops\":%d,\"wire_cycles\":%d,\"total_cycles\":%d,\"per_machine\":[",
			q.Trace, q.OriginMachine, q.OriginSpan, q.Hops, q.WireCycles, q.Total)
		for j, m := range q.Machines {
			if j > 0 {
				bw.printf(",")
			}
			bw.printf("{\"machine\":%d,\"cycles\":%d}", m, q.MachineCycles[j])
		}
		bw.printf("]}")
	}
	bw.printf("\n  ]\n}\n")
	return bw.err
}

// writeCausalMachine writes one entry of the "machines" array: the
// digest, the request trees (free-standing instants are not requests) and
// the per-request critical paths.
func writeCausalMachine(bw *errWriter, r *Recorder, events []Event) {
	f := BuildCausalForest(events)
	bw.printf("\n    {\n      \"machine\": %d,\n      \"events\": %d,\n      \"dropped\": %d,\n      \"orphans\": %d,\n",
		r.Machine(), len(events), r.Dropped(), f.Orphans)
	bw.printf("      \"requests\": [")
	first := true
	for _, root := range f.Roots {
		if root.Event.Span == 0 {
			continue
		}
		if !first {
			bw.printf(",")
		}
		first = false
		bw.printf("\n        ")
		writeCausalNode(bw, root)
	}
	bw.printf("\n      ],\n      \"critical_paths\": [")
	for i, p := range CriticalPaths(f) {
		if i > 0 {
			bw.printf(",")
		}
		bw.printf("\n        {\"root\":%d,\"class\":%s,\"arg1\":%d,\"total_cycles\":%d,\"self_cycles\":%d,\"events\":%d,\"by_class\":[",
			p.Root, strconv.Quote(p.Class.String()), p.Arg1, p.Total, p.Self, p.Events)
		for j, c := range p.ByClass {
			if j > 0 {
				bw.printf(",")
			}
			bw.printf("{\"class\":%s,\"cycles\":%d,\"count\":%d}",
				strconv.Quote(c.Class.String()), c.Cycles, c.Count)
		}
		bw.printf("]}")
	}
	bw.printf("\n      ]\n    }")
}

func writeCausalNode(bw *errWriter, n *CausalNode) {
	e := n.Event
	bw.printf("{\"span\":%d,\"class\":%s,\"ts\":%d,\"dur\":%d,\"vcpu\":%d,\"vmpl\":%d,\"arg1\":%d,\"arg2\":%d",
		e.Span, strconv.Quote(e.Class.String()), e.TS, e.Dur, e.VCPU, e.VMPL, e.Arg1, e.Arg2)
	if len(n.Children) > 0 {
		bw.printf(",\"children\":[")
		for i, c := range n.Children {
			if i > 0 {
				bw.printf(",")
			}
			writeCausalNode(bw, c)
		}
		bw.printf("]")
	}
	bw.printf("}")
}

package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// taggedRecorder builds a small recorder carrying a fleet machine id.
func taggedRecorder(machine, capacity int) *Recorder {
	r := NewRecorder(capacity)
	r.SetMachine(machine)
	return r
}

func TestTraceRefPacking(t *testing.T) {
	cases := []struct {
		machine int
		span    uint64
	}{
		{0, 1}, {0, 1 << 40}, {3, 7}, {100, traceRefSpanMask},
	}
	for _, c := range cases {
		ref := PackTraceRef(c.machine, c.span)
		if ref == 0 {
			t.Fatalf("PackTraceRef(%d, %d) = 0; machine 0 must pack nonzero", c.machine, c.span)
		}
		m, s := UnpackTraceRef(ref)
		if m != c.machine || s != c.span {
			t.Fatalf("round trip (%d, %d) -> %#x -> (%d, %d)", c.machine, c.span, ref, m, s)
		}
	}
	if PackTraceRef(5, 0) != 0 {
		t.Fatalf("zero span must pack to the zero ref (no context)")
	}
	if m, s := UnpackTraceRef(0); m != -1 || s != 0 {
		t.Fatalf("UnpackTraceRef(0) = (%d, %d), want (-1, 0)", m, s)
	}
}

// Every exporter refuses malformed recorder slices instead of silently
// interleaving tracks.
func TestFleetExportValidation(t *testing.T) {
	var buf bytes.Buffer
	ok := []*Recorder{taggedRecorder(0, 64), taggedRecorder(1, 64)}

	cases := []struct {
		name string
		recs []*Recorder
		want string
	}{
		{"nil slice", nil, "at least one"},
		{"empty slice", []*Recorder{}, "at least one"},
		{"nil entry", []*Recorder{ok[0], nil}, "is nil"},
		// An untagged recorder is machine 0, so it collides with a tagged
		// machine 0 like any other duplicate.
		{"untagged beside machine 0", []*Recorder{ok[0], NewRecorder(64)}, "duplicate machine id 0"},
		{"duplicate id", []*Recorder{taggedRecorder(2, 64), taggedRecorder(2, 64)}, "duplicate machine id 2"},
	}
	for _, c := range cases {
		for _, write := range []struct {
			name string
			fn   func() error
		}{
			{"chrome", func() error { return WriteChromeTrace(&buf, ChromeOptions{}, c.recs...) }},
			{"prometheus", func() error { return WritePrometheus(&buf, c.recs...) }},
			{"prometheus reference", func() error { return WritePrometheusReference(&buf, c.recs...) }},
			{"causal", func() error { return WriteCausalTrace(&buf, c.recs...) }},
		} {
			err := write.fn()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s export with %s: err = %v, want substring %q", write.name, c.name, err, c.want)
			}
		}
	}

	if err := WriteChromeTrace(&buf, ChromeOptions{}, ok...); err != nil {
		t.Fatalf("well-formed fleet refused: %v", err)
	}
}

// fleetFixture is a 2-machine synthetic run: one request rooted on
// machine 0 (span 5) sends a frame from span 10 that machine 1 receives
// under its delivery span 20, plus one orphan on each side.
func fleetFixture() (recs []*Recorder, trace uint64) {
	trace = PackTraceRef(0, 5)
	m0 := taggedRecorder(0, 256)
	m0.Record(Event{Class: ClassService, Kind: Span, TS: 1100, Dur: 100, VCPU: 0, VMPL: -1, Span: 10})
	m0.Record(Event{Class: ClassNetTx, Kind: Instant, TS: 1000, VCPU: 0, VMPL: -1,
		Arg1: trace, Arg2: PackTraceRef(0, 10)})
	// A departure nothing ever answers (frame dropped in flight).
	m0.Record(Event{Class: ClassNetTx, Kind: Instant, TS: 1200, VCPU: 0, VMPL: -1,
		Arg1: trace, Arg2: PackTraceRef(0, 11)})

	m1 := taggedRecorder(1, 256)
	m1.Record(Event{Class: ClassNetRx, Kind: Instant, TS: 1500, VCPU: 0, VMPL: -1,
		Arg1: trace, Arg2: PackTraceRef(0, 10), Parent: 20})
	m1.Record(Event{Class: ClassService, Kind: Span, TS: 1900, Dur: 200, VCPU: 0, VMPL: -1, Span: 20})
	// An arrival whose sending breadcrumb was never recorded.
	m1.Record(Event{Class: ClassNetRx, Kind: Instant, TS: 1600, VCPU: 0, VMPL: -1,
		Arg1: PackTraceRef(9, 99), Arg2: PackTraceRef(9, 98), Parent: 21})
	return []*Recorder{m0, m1}, trace
}

func TestBuildFleetEdges(t *testing.T) {
	recs, trace := fleetFixture()
	edges, err := BuildFleetEdges(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges.Edges) != 1 {
		t.Fatalf("got %d edges, want 1", len(edges.Edges))
	}
	e := edges.Edges[0]
	if e.Trace != trace || e.SrcMachine != 0 || e.SrcSpan != 10 || e.SrcTS != 1000 ||
		e.DstMachine != 1 || e.DstSpan != 20 || e.DstTS != 1500 || e.WireCycles != 500 {
		t.Fatalf("edge = %+v", e)
	}
	if edges.UnmatchedRx != 1 || edges.UnmatchedTx != 1 {
		t.Fatalf("unmatched rx=%d tx=%d, want 1/1", edges.UnmatchedRx, edges.UnmatchedTx)
	}
}

func TestFleetCriticalPaths(t *testing.T) {
	recs, trace := fleetFixture()
	reqs, _, err := FleetCriticalPaths(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 {
		t.Fatalf("got %d fleet requests, want 1", len(reqs))
	}
	q := reqs[0]
	if q.Trace != trace || q.OriginMachine != 0 || q.OriginSpan != 5 {
		t.Fatalf("origin = m%d span %d trace %#x", q.OriginMachine, q.OriginSpan, q.Trace)
	}
	if len(q.Machines) != 2 || q.Machines[0] != 0 || q.Machines[1] != 1 {
		t.Fatalf("machines = %v", q.Machines)
	}
	if q.MachineCycles[0] != 100 || q.MachineCycles[1] != 200 {
		t.Fatalf("machine cycles = %v", q.MachineCycles)
	}
	// Wire time is its own component, charged to neither machine.
	if q.Hops != 1 || q.WireCycles != 500 || q.Total != 800 {
		t.Fatalf("hops=%d wire=%d total=%d, want 1/500/800", q.Hops, q.WireCycles, q.Total)
	}
}

func TestCorrelateFleetEvidence(t *testing.T) {
	trace := PackTraceRef(0, 5)
	ms := []MachineEvents{
		{Machine: 0, Events: []Event{
			{Class: ClassNetTx, Arg1: trace, Arg2: PackTraceRef(0, 10)},
		}},
		{Machine: 1, Events: []Event{
			{Class: ClassNetRx, Arg1: trace, Arg2: PackTraceRef(0, 10), Parent: 20},
			{Class: ClassDenied, Arg1: 3, Parent: 20},
			// A denial under an unrelated span must not join the trace.
			{Class: ClassDenied, Arg1: 3, Parent: 99},
		}},
	}
	evs := CorrelateFleetEvidence(ms)
	if len(evs) != 1 {
		t.Fatalf("got %d traces, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Trace != trace || ev.OriginMachine != 0 || ev.OriginSpan != 5 {
		t.Fatalf("trace identity = %+v", ev)
	}
	if len(ev.Legs) != 2 {
		t.Fatalf("got %d legs, want 2", len(ev.Legs))
	}
	if l := ev.Leg(0); l == nil || l.Sent != 1 || l.Received != 0 || len(l.Denied) != 0 {
		t.Fatalf("machine-0 leg = %+v", l)
	}
	if l := ev.Leg(1); l == nil || l.Sent != 0 || l.Received != 1 || len(l.Denied) != 1 {
		t.Fatalf("machine-1 leg = %+v", l)
	}
	if ev.Denials() != 1 {
		t.Fatalf("Denials() = %d, want 1", ev.Denials())
	}
	if ev.Leg(2) != nil {
		t.Fatalf("machine 2 never observed the trace, Leg must be nil")
	}
}

// A machine whose trace ring overflowed still reports exact per-class
// drop counts after the fleet merge: eviction accounting is per machine
// and the page carries it through with a machine label.
func TestFleetSummaryDropByClassSurvivesMerge(t *testing.T) {
	m0 := taggedRecorder(0, 64)
	m0.Record(Event{Class: ClassAudit, Kind: Instant, TS: 1, VCPU: 0, VMPL: -1})

	m1 := taggedRecorder(1, 64)
	for i := 0; i < 500; i++ {
		m1.Record(Event{Class: ClassSyscall, Kind: Instant, TS: uint64(i), VCPU: 0, VMPL: 3, Arg1: 1})
	}
	if m1.Dropped() == 0 {
		t.Fatalf("overflow fixture did not overflow")
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, m0, m1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `veil_trace_dropped_by_class_total{machine="1",class="syscall"}`
	if !strings.Contains(out, want) {
		t.Fatalf("fleet page lost machine 1's per-class drop counters:\n%s", out)
	}
	if strings.Contains(out, `veil_trace_dropped_by_class_total{machine="0"`) {
		t.Fatalf("machine 0 dropped nothing but reports per-class drops")
	}
	if !strings.Contains(out, `veil_trace_dropped_total{machine="0"} 0`) {
		t.Fatalf("per-machine total drop counter missing for machine 0")
	}

	// The merged Chrome trace must also survive the overflow, reporting
	// the summed eviction count in its header.
	var tr bytes.Buffer
	if err := WriteChromeTrace(&tr, ChromeOptions{}, m0, m1); err != nil {
		t.Fatal(err)
	}
	wantHdr := `"dropped_events":"` + strconv.FormatUint(m0.Dropped()+m1.Dropped(), 10) + `"`
	if !strings.Contains(tr.String(), wantHdr) {
		t.Fatalf("merged trace header does not report the summed drop count")
	}
}

// Two exports of the same fleet must be byte-identical.
func TestFleetExportDeterminism(t *testing.T) {
	recs, _ := fleetFixture()
	for _, write := range []struct {
		name string
		fn   func(*bytes.Buffer) error
	}{
		{"chrome", func(b *bytes.Buffer) error { return WriteChromeTrace(b, ChromeOptions{}, recs...) }},
		{"prometheus", func(b *bytes.Buffer) error { return WritePrometheus(b, recs...) }},
		{"causal", func(b *bytes.Buffer) error { return WriteCausalTrace(b, recs...) }},
	} {
		var a, b bytes.Buffer
		if err := write.fn(&a); err != nil {
			t.Fatalf("%s: %v", write.name, err)
		}
		if err := write.fn(&b); err != nil {
			t.Fatalf("%s: %v", write.name, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s export is not deterministic", write.name)
		}
	}
}

// The unified causal view of a fleet: one entry per machine in slice
// order, with the matched wire edge, both unmatched breadcrumbs and the
// cross-machine critical path in the fleet-wide part.
func TestCausalTraceFleetView(t *testing.T) {
	recs, trace := fleetFixture()
	var buf bytes.Buffer
	if err := WriteCausalTrace(&buf, recs...); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Machines []struct {
			Machine       int               `json:"machine"`
			Events        int               `json:"events"`
			Requests      []json.RawMessage `json:"requests"`
			CriticalPaths []json.RawMessage `json:"critical_paths"`
		} `json:"machines"`
		UnmatchedRx int `json:"unmatched_rx"`
		UnmatchedTx int `json:"unmatched_tx"`
		Edges       []struct {
			Trace      uint64 `json:"trace"`
			WireCycles uint64 `json:"wire_cycles"`
		} `json:"edges"`
		FleetCriticalPaths []struct {
			Trace       uint64 `json:"trace"`
			TotalCycles uint64 `json:"total_cycles"`
		} `json:"fleet_critical_paths"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("causal export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Machines) != 2 || doc.Machines[0].Machine != 0 || doc.Machines[1].Machine != 1 {
		t.Fatalf("machines = %+v", doc.Machines)
	}
	if doc.Machines[0].Events != 3 || len(doc.Machines[0].Requests) != 1 || len(doc.Machines[0].CriticalPaths) != 1 {
		t.Fatalf("machine 0 entry = %+v", doc.Machines[0])
	}
	if doc.UnmatchedRx != 1 || doc.UnmatchedTx != 1 {
		t.Fatalf("unmatched rx=%d tx=%d, want 1/1", doc.UnmatchedRx, doc.UnmatchedTx)
	}
	if len(doc.Edges) != 1 || doc.Edges[0].Trace != trace || doc.Edges[0].WireCycles != 500 {
		t.Fatalf("edges = %+v", doc.Edges)
	}
	if len(doc.FleetCriticalPaths) != 1 || doc.FleetCriticalPaths[0].TotalCycles != 800 {
		t.Fatalf("fleet critical paths = %+v", doc.FleetCriticalPaths)
	}

	// A single machine is a fleet of one: the fleet-wide part is empty.
	buf.Reset()
	if err := WriteCausalTrace(&buf, recs[0]); err != nil {
		t.Fatal(err)
	}
	doc.Edges, doc.FleetCriticalPaths = nil, nil
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Machines) != 1 || len(doc.Edges) != 0 || len(doc.FleetCriticalPaths) != 0 || doc.UnmatchedRx != 0 || doc.UnmatchedTx != 2 {
		t.Fatalf("single-machine causal view = %+v", doc)
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

func mkEvent(i int) Event {
	return Event{
		TS:    uint64(i) * 100,
		Class: ClassSyscall,
		Kind:  Instant,
		Arg1:  uint64(i),
		VMPL:  -1,
	}
}

func TestRingOverflowEvictsOldest(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(mkEvent(i))
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := r.Events()
	for i, e := range evs {
		if want := uint64(6 + i); e.Arg1 != want {
			t.Errorf("event %d: Arg1 = %d, want %d (oldest must be evicted first)", i, e.Arg1, want)
		}
	}
	// Metrics survive eviction: all 10 observations are counted.
	if got := r.Metrics().Count(ClassSyscall); got != 10 {
		t.Errorf("metrics count = %d, want 10 (metrics must not drop with the ring)", got)
	}
}

func TestRingExactFill(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 3; i++ {
		r.Record(mkEvent(i))
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 3 and 0", r.Len(), r.Dropped())
	}
	if evs := r.Events(); evs[0].Arg1 != 0 || evs[2].Arg1 != 2 {
		t.Fatalf("events out of order: %+v", evs)
	}
}

func TestDefaultCapacity(t *testing.T) {
	if got := NewRecorder(0).Cap(); got != DefaultCapacity {
		t.Fatalf("Cap = %d, want DefaultCapacity %d", got, DefaultCapacity)
	}
}

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 10, 11}, {1<<10 - 1, 10}, {1 << 63, 64}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must fall inside [BucketLow, BucketHigh] of its bucket.
	for _, c := range cases {
		b := bucketOf(c.v)
		if c.v < BucketLow(b) || c.v > BucketHigh(b) {
			t.Errorf("value %d outside bucket %d range [%d, %d]",
				c.v, b, BucketLow(b), BucketHigh(b))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	// A constant distribution must report the exact constant at every
	// quantile (the clamp to [min, max] guarantees it).
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(7135)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 7135 {
			t.Errorf("Quantile(%v) = %d, want 7135", q, got)
		}
	}
	if h.Count() != 100 || h.Sum() != 713500 || h.min != 7135 || h.max != 7135 {
		t.Errorf("stats: n=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.min, h.max)
	}

	// A two-mode distribution: 90 cheap (≤100), 10 expensive (=1000).
	var g Histogram
	for i := 0; i < 90; i++ {
		g.Observe(100)
	}
	for i := 0; i < 10; i++ {
		g.Observe(1000)
	}
	if p50 := g.Quantile(0.5); p50 > 127 {
		t.Errorf("p50 = %d, want ≤ 127 (upper edge of the 100s bucket)", p50)
	}
	if p99 := g.Quantile(0.99); p99 != 1000 {
		t.Errorf("p99 = %d, want 1000 (bucket edge clamped to max)", p99)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(Event{Class: ClassVMGEXIT, TS: 1})
		_ = r.Len()
		_ = r.Dropped()
		_ = r.Metrics().Count(ClassVMGEXIT)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder fast path allocated %v times per run, want 0", allocs)
	}
}

func TestLiveRecorderZeroAllocsOnRecord(t *testing.T) {
	r := NewRecorder(1 << 10)
	ev := Event{Class: ClassSyscall, Kind: Span, TS: 500, Dur: 300, Span: 1, Parent: 2}
	// Fill the ring first so the measured calls run the steady-state path,
	// folding each evicted event into the recorder's aggregate.
	for i := 0; i < r.Cap(); i++ {
		r.Record(ev)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(ev)
	})
	if allocs != 0 {
		t.Fatalf("hot-path Record allocated %v times per run, want 0", allocs)
	}
}

func TestNilAccessors(t *testing.T) {
	var r *Recorder
	if r.Events() != nil || r.Cap() != 0 || r.Metrics() != nil {
		t.Fatal("nil recorder accessors must return zero values")
	}
	var m *Metrics
	if m.Count(ClassSyscall) != 0 || m.SpanHist(ClassSyscall) != nil ||
		m.CyclesByKind() != nil || m.KindName(0) != "" || m.NumKinds() != 0 {
		t.Fatal("nil metrics accessors must return zero values")
	}
}

func TestClassNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for c := Class(0); c < NumClasses; c++ {
		name := c.String()
		if name == "" || name == "class(?)" {
			t.Errorf("class %d has no name", c)
		}
		if seen[name] {
			t.Errorf("class name %q duplicated", name)
		}
		seen[name] = true
	}
	if Class(200).String() != "class(?)" {
		t.Error("out-of-range class must stringify as class(?)")
	}
}

// fixedRecorder builds a recorder with a representative deterministic
// event mix for exporter tests.
func fixedRecorder() *Recorder {
	r := NewRecorder(64)
	r.SetKindNames([]string{"VMGEXIT", "VMENTER", "syscall"})
	r.Record(Event{Class: ClassVMGEXIT, Kind: Instant, TS: 100, VCPU: 0, VMPL: 3})
	r.Record(Event{Class: ClassVMENTER, Kind: Instant, TS: 4000, VCPU: 0, VMPL: 0})
	r.Record(Event{Class: ClassRoundTrip, Kind: Span, TS: 7235, Dur: 7135, VCPU: 0, VMPL: -1, Arg1: 0x8000_0011})
	r.Record(Event{Class: ClassDomainSwitch, Kind: Span, TS: 7235, Dur: 7135, VCPU: 0, VMPL: -1, Arg1: 3, Arg2: 0})
	r.Record(Event{Class: ClassSyscall, Kind: Instant, TS: 9000, VCPU: 1, VMPL: 3, Arg1: 2})
	r.Record(Event{Class: ClassRMPAdjust, Kind: Instant, TS: 9500, VCPU: 1, VMPL: 0, Arg1: 0x4000, Arg2: 1<<8 | 0x7})
	r.Record(Event{Class: ClassAudit, Kind: Instant, TS: 9900, VCPU: 1, VMPL: 1, Arg1: 120})
	r.SetCycleSource(func() []uint64 { return []uint64{3890, 3245, 300} })
	return r
}

func TestChromeExportValidAndDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	opts := ChromeOptions{CyclesPerMicrosecond: 1900, SyscallName: func(n uint64) string { return "open" }}
	if err := WriteChromeTrace(&a, opts, fixedRecorder()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, opts, fixedRecorder()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of identical recorders differ")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", a.String())
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	// 7 events + process_name + 2 thread_name rows.
	if len(tf.TraceEvents) != 10 {
		t.Fatalf("got %d trace events, want 10", len(tf.TraceEvents))
	}
	byName := map[string]int{}
	for _, e := range tf.TraceEvents {
		byName[e.Name]++
	}
	for _, want := range []string{"vmgexit", "vmgexit-roundtrip", "domain-switch", "syscall", "rmpadjust", "audit-emit", "thread_name"} {
		if byName[want] == 0 {
			t.Errorf("no %q event in export", want)
		}
	}
}

func TestChromeExportMachineDimension(t *testing.T) {
	opts := ChromeOptions{CyclesPerMicrosecond: 1900}

	// Machine 0 is the single-machine default: tagging it must not change
	// a single byte of the export.
	var untagged, zero bytes.Buffer
	if err := WriteChromeTrace(&untagged, opts, fixedRecorder()); err != nil {
		t.Fatal(err)
	}
	tagged := fixedRecorder()
	tagged.SetMachine(0)
	if err := WriteChromeTrace(&zero, opts, tagged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(untagged.Bytes(), zero.Bytes()) {
		t.Fatal("SetMachine(0) changed the single-machine export")
	}

	// A non-zero machine id must become the pid of every row.
	other := fixedRecorder()
	other.SetMachine(2)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, opts, other); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"pid":0`) {
		t.Fatalf("machine-2 export still contains pid 0 rows:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"pid":2`) {
		t.Fatal("machine-2 export has no pid 2 rows")
	}
}

func TestFleetChromeTraceMergedDeterministic(t *testing.T) {
	opts := ChromeOptions{CyclesPerMicrosecond: 1900}
	mk := func() []*Recorder {
		recs := []*Recorder{fixedRecorder(), fixedRecorder(), fixedRecorder()}
		for i, r := range recs {
			r.SetMachine(i)
		}
		return recs
	}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, opts, mk()...); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, opts, mk()...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two merged exports of identical fleets differ")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("merged export is not valid JSON:\n%s", a.String())
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	procs := map[int]string{}
	perPid := map[int]int{}
	for _, e := range tf.TraceEvents {
		perPid[e.Pid]++
		if e.Name == "process_name" {
			procs[e.Pid], _ = e.Args["name"].(string)
		}
	}
	for pid := 0; pid < 3; pid++ {
		want := "veil/m" + string(rune('0'+pid))
		if procs[pid] != want {
			t.Errorf("process_name for pid %d = %q, want %q", pid, procs[pid], want)
		}
		// 10 rows per machine: 7 events + process_name + 2 thread_name.
		if perPid[pid] != 10 {
			t.Errorf("pid %d has %d rows, want 10", pid, perPid[pid])
		}
	}
}

// richFleet tags three rich recorders as machines 0..2; machine 2's ring
// overflows, and a NetTx on machine 0 answered by a NetRx on machine 1
// gives the merged trace a wire arrow.
func richFleet() []*Recorder {
	recs := make([]*Recorder, 3)
	for i := range recs {
		capacity := 1 << 12
		if i == 2 {
			capacity = 64
		}
		recs[i] = buildRichRecorder(int64(10+i), capacity)
		recs[i].SetMachine(i)
	}
	ctx := PackTraceRef(0, 7)
	recs[0].Record(Event{Class: ClassNetTx, TS: 1 << 40, VMPL: -1, Arg1: ctx, Arg2: ctx})
	recs[1].Record(Event{Class: ClassNetRx, TS: 1<<40 + 500, VMPL: -1, Arg1: ctx, Arg2: ctx})
	return recs
}

// chromeRows splits a Chrome export into its event rows (one per line),
// dropping the header and footer lines, the cross-machine wire arrows and
// each flow arrow's id (flow ids number on across a merged export).
func chromeRows(t *testing.T, opts ChromeOptions, recs ...*Recorder) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, opts, recs...); err != nil {
		t.Fatal(err)
	}
	flowID := regexp.MustCompile(`"id":\d+,`)
	lines := strings.Split(buf.String(), "\n")
	var rows []string
	for _, l := range lines[1 : len(lines)-2] {
		if strings.Contains(l, `"name":"wire"`) {
			continue
		}
		rows = append(rows, flowID.ReplaceAllString(strings.TrimSuffix(l, ","), `"id":_,`))
	}
	return rows
}

// A machine is a fleet of one: the merged trace's rows for pid i are that
// machine's own single-recorder export.
func TestChromeFleetRowsMatchSingleExport(t *testing.T) {
	opts := ChromeOptions{CyclesPerMicrosecond: 1900}
	recs := richFleet()
	merged := chromeRows(t, opts, recs...)
	for i, r := range recs {
		pid := fmt.Sprintf(`"pid":%d,`, i)
		var got []string
		for _, row := range merged {
			if strings.Contains(row, pid) {
				got = append(got, row)
			}
		}
		want := chromeRows(t, opts, r)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("machine %d: merged rows (%d) differ from its single export (%d)", i, len(got), len(want))
		}
	}
}

// The merged Prometheus page restricted to machine="i" is exactly the
// N=1 page of recs[i], comment lines aside.
func TestPrometheusFleetLinesMatchSinglePage(t *testing.T) {
	recs := richFleet()
	page := func(recs ...*Recorder) []string {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, recs...); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
			if !strings.HasPrefix(l, "#") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	merged := page(recs...)
	total := 0
	for i, r := range recs {
		label := fmt.Sprintf(`{machine="%d"`, i)
		var got []string
		for _, l := range merged {
			if strings.Contains(l, label) {
				got = append(got, l)
			}
		}
		total += len(got)
		if want := page(r); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("machine %d: merged lines differ from its N=1 page:\n%s", i,
				firstDiff([]byte(strings.Join(got, "\n")), []byte(strings.Join(want, "\n"))))
		}
	}
	if total != len(merged) {
		t.Fatalf("%d of %d merged series carry no known machine label", len(merged)-total, len(merged))
	}
}

func TestPrometheusExport(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, fixedRecorder()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`veil_events_total{machine="0",class="vmgexit"} 1`,
		`veil_events_total{machine="0",class="syscall"} 1`,
		`veil_span_cycles{machine="0",class="domain-switch",quantile="0.5"} 7135`,
		`veil_cycles_total{machine="0",kind="VMGEXIT"} 3890`,
		`veil_trace_dropped_total{machine="0"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// BucketLow returns the smallest value bucket b holds.
func BucketLow(b int) uint64 {
	if b <= 0 {
		return 0
	}
	return 1 << (b - 1)
}

// Record appends one event through Alloc: if the ring is full the oldest
// event is folded into the recorder's aggregate and overwritten.
// Recording on a nil recorder is a no-op; a live Record never allocates
// (the zero-alloc pin in the tests).
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	*r.Alloc(e.VCPU) = e
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Denials returns the total denial count across all legs.
func (t *TraceEvidence) Denials() int {
	n := 0
	for _, l := range t.Legs {
		n += len(l.Denied)
	}
	return n
}

package obs

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// Tests for the single-ring record path: one bounded ring per recorder
// shared by every VCPU. The invariants pinned here are the recorder's
// contract — events come back in record order, eviction moves metrics
// instead of losing them, the per-VCPU views survive the shared ring, the
// flight-shadow tail is exact, and every exporter is byte-deterministic
// over a multi-VCPU stream.

// seededStream produces a deterministic mixed-VCPU event stream, the
// stand-in for a seeded multi-VCPU simulator run. Roughly a quarter of
// the events are root or nested spans, so the request histograms fill.
func seededStream(n, vcpus int, seed int64) []Event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]Event, n)
	for i := range evs {
		k := Instant
		var dur, span, parent uint64
		if r.Intn(4) == 0 {
			k = Span
			dur = uint64(r.Intn(50000))
			span = uint64(i + 1)
			if r.Intn(2) == 0 {
				parent = uint64(r.Intn(i+1) + 1)
			}
		}
		evs[i] = Event{
			TS: uint64(i) * 97, Dur: dur,
			Class: Class(r.Intn(int(NumClasses))), Kind: k,
			Arg1: uint64(r.Intn(8)), VCPU: int32(r.Intn(vcpus)), VMPL: -1,
			Span: span, Parent: parent,
		}
	}
	return evs
}

// recordStream records in into r, feeding a ring latency for every
// seventh event on its VCPU.
func recordStream(r *Recorder, in []Event) {
	for i, e := range in {
		r.Record(e)
		if i%7 == 0 {
			r.RecordRingLatency(e.VCPU, e.TS%4096)
		}
	}
}

func TestEventIs64Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Fatalf("sizeof(Event) = %d, want 64", got)
	}
}

func TestShardedMergeReproducesRecordOrder(t *testing.T) {
	in := seededStream(5000, 4, 71)
	r := NewRecorder(1 << 13) // retains everything
	for _, e := range in {
		r.Record(e) // no ring latencies: Alloc alone must see every VCPU
	}
	m := r.Metrics()
	if got := m.VCPUs(); got != 4 {
		t.Fatalf("VCPUs() = %d, want 4", got)
	}
	var perVCPU uint64
	for v := 0; v < 4; v++ {
		perVCPU += m.RequestHist(v).Count()
	}
	if all := m.RequestHistAll().Count(); all == 0 || perVCPU != all {
		t.Fatalf("per-VCPU request histograms hold %d requests, all VCPUs %d", perVCPU, all)
	}
	if out := r.Events(); !reflect.DeepEqual(out, in) {
		t.Fatalf("Events() is not the recorded stream in record order (%d events, want %d)", len(out), len(in))
	}
}

// TestShardedEvictionKeepsAggregates records one 3-VCPU stream into a
// recorder that evicts almost everything and into one that evicts
// nothing: their snapshots agree on everything but the drop counters,
// and the small ring retains exactly the stream's newest events.
func TestShardedEvictionKeepsAggregates(t *testing.T) {
	const cap, n = 64, 4000
	in := seededStream(n, 3, 72)

	big := NewRecorder(1 << 13) // reference: retains all, no eviction
	small := NewRecorder(cap)
	recordStream(big, in)
	recordStream(small, in)
	mb, ms := big.Metrics(), small.Metrics()

	if small.Dropped() != n-cap || small.Total() != n {
		t.Fatalf("Dropped = %d, Total = %d; want %d and %d", small.Dropped(), small.Total(), n-cap, n)
	}
	var byClass [NumClasses]uint64
	for _, e := range in[:n-cap] {
		byClass[e.Class]++
	}
	if ms.droppedByClass != byClass {
		t.Fatalf("DroppedByClass = %v, want the classes of the first %d events %v", ms.droppedByClass, n-cap, byClass)
	}
	if big.Dropped() != 0 {
		t.Fatalf("reference recorder dropped %d events", big.Dropped())
	}
	withoutDrops := *ms
	withoutDrops.droppedByClass = [NumClasses]uint64{}
	if !reflect.DeepEqual(&withoutDrops, mb) {
		t.Fatal("evicting recorder's snapshot differs from the reference beyond its drop counters")
	}

	if got := small.Events(); !reflect.DeepEqual(got, in[n-cap:]) {
		t.Fatalf("Events() is not the stream's newest %d events in record order", cap)
	}
	if ms.VCPUs() != 3 || mb.VCPUs() != 3 {
		t.Fatalf("VCPUs() = %d and %d, want 3", ms.VCPUs(), mb.VCPUs())
	}
	for v := 0; v < 3; v++ {
		for _, h := range []struct {
			name       string
			small, ref *Histogram
		}{
			{"request", ms.RequestHist(v), mb.RequestHist(v)},
			{"ring latency", ms.RingLatHist(v), mb.RingLatHist(v)},
		} {
			if h.small.Count() == 0 || *h.small != *h.ref {
				t.Errorf("VCPU %d %s histogram: evicting {n=%d sum=%d}, reference {n=%d sum=%d}",
					v, h.name, h.small.Count(), h.small.Sum(), h.ref.Count(), h.ref.Sum())
			}
		}
	}
}

// TestMetricsDetached: a snapshot does not change as recording continues,
// through eviction, new VCPUs and ring-latency observations.
func TestMetricsDetached(t *testing.T) {
	in := seededStream(3000, 2, 76)
	r := NewRecorder(128)
	recordStream(r, in[:1000])
	before := r.Metrics()
	frozen := *before
	frozen.agg.vcpuReqs = append([]Histogram(nil), before.agg.vcpuReqs...)
	frozen.ringLat = append([]Histogram(nil), before.ringLat...)

	recordStream(r, in[1000:])
	r.Record(Event{TS: 1 << 40, Dur: 9, Kind: Span, Class: ClassAudit, Span: 1, VCPU: 5})
	r.RecordRingLatency(5, 80)
	if !reflect.DeepEqual(before, &frozen) {
		t.Fatal("snapshot changed as recording continued")
	}
	if after := r.Metrics(); after.VCPUs() != 6 || before.VCPUs() != 2 {
		t.Fatalf("VCPUs() = %d after, %d before; want 6 and 2", after.VCPUs(), before.VCPUs())
	}
}

// TestShardedTailIsGloballyNewest: the recorder's flight shadow, Tail of
// the flight capacity, is exactly what a flight ring fed the same stream
// holds, and exactly the stream's newest events.
func TestShardedTailIsGloballyNewest(t *testing.T) {
	in := seededStream(3000, 4, 73)
	r := NewRecorder(DefaultFlightCapacity)
	f := NewFlight(DefaultFlightCapacity)
	for _, e := range in {
		r.Record(e)
		*f.Alloc(e.Class) = e
	}
	tail := r.Tail(DefaultFlightCapacity)
	if !reflect.DeepEqual(tail, f.Events()) {
		t.Fatal("Recorder.Tail differs from Flight.Events on the same stream")
	}
	if !reflect.DeepEqual(tail, in[len(in)-DefaultFlightCapacity:]) {
		t.Fatalf("Tail(%d) is not the stream's newest events", DefaultFlightCapacity)
	}
	if got := r.Tail(5); !reflect.DeepEqual(got, in[len(in)-5:]) {
		t.Fatal("Tail(5) is not the stream's newest 5 events")
	}
}

func TestAllocMatchesRecord(t *testing.T) {
	in := seededStream(2000, 4, 74)
	viaRecord := NewRecorder(256)
	viaAlloc := NewRecorder(256)
	for _, e := range in {
		viaRecord.Record(e)
		s := viaAlloc.Alloc(e.VCPU)
		*s = e
	}
	if !bytes.Equal(exportAll(t, viaRecord), exportAll(t, viaAlloc)) {
		t.Fatal("Alloc-filled recorder exports differ from Record-filled")
	}
}

// exportAll renders every exporter into one buffer — the byte-identity
// probe the determinism tests compare.
func exportAll(t *testing.T, r *Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ChromeOptions{ProcessName: "t", CyclesPerMicrosecond: 1900}, r); err != nil {
		t.Fatalf("chrome: %v", err)
	}
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	if err := WriteFlamegraph(&buf, r, FlamegraphOptions{}); err != nil {
		t.Fatalf("flamegraph: %v", err)
	}
	return buf.Bytes()
}

// TestShardedExportDeterminism is the export contract: a seeded
// multi-VCPU stream exported twice from the same recorder, and again from
// an independently replayed recorder, is byte-identical across every
// exporter (Chrome trace, Prometheus text, flame graph).
func TestShardedExportDeterminism(t *testing.T) {
	mk := func() *Recorder {
		r := NewRecorder(1024)
		r.SetServiceNames([]string{"mon", "kci", "enc", "log"})
		for _, e := range seededStream(6000, 4, 75) {
			r.Record(e)
		}
		return r
	}
	r1 := mk()
	first := exportAll(t, r1)
	if again := exportAll(t, r1); !bytes.Equal(first, again) {
		t.Fatal("re-exporting the same recorder changed bytes")
	}
	if replay := exportAll(t, mk()); !bytes.Equal(first, replay) {
		t.Fatal("replaying the seeded stream into a fresh recorder changed bytes")
	}
}

// TestPrometheusLabelEscaping pins the %q escaping on service-name labels:
// quotes, backslashes and newlines in a registered name must stay inside
// one well-formed label value.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRecorder(64)
	r.SetServiceNames([]string{`we"ird`, `back\slash`, "new\nline"})
	for svc := 0; svc < 3; svc++ {
		r.Record(Event{TS: uint64(svc), Dur: 100, Class: ClassService, Kind: Span, Arg1: uint64(svc), VMPL: -1})
	}
	var buf bytes.Buffer
	WritePrometheus(&buf, r)
	for _, want := range []string{`service="we\"ird"`, `service="back\\slash"`, `service="new\nline"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("prometheus output missing escaped label %s", want)
		}
	}
	for i, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if n := bytes.Count(line, []byte(`{`)); n > 1 {
			t.Errorf("line %d has %d '{': %q", i, n, line)
		}
	}
}

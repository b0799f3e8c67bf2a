package obs

import "testing"

// The record-path microbenchmarks behind the obs v3 overhead budget: the
// tracing tax on `veil-bench -experiment obs` is (events/sec × ns/Record),
// so shaving nanoseconds here is what moves TracingOverheadPct.

func benchEvent(i int) Event {
	k := Instant
	if i&3 == 0 {
		k = Span
	}
	return Event{
		TS: uint64(i) * 40, Dur: uint64(i&1023) * 3,
		Class: Class(i % int(NumClasses)), Kind: k,
		Arg1: uint64(i), VCPU: int32(i & 3), VMPL: -1,
	}
}

func BenchmarkRecord(b *testing.B) {
	r := NewRecorder(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(benchEvent(i))
	}
}

// BenchmarkRecordSingleVCPU is the shape the obs experiment measures: one
// producer VCPU, so the shard cache hits on every Record and the ring
// stays L2-resident; steady-state evictions fold into the aggregate.
func BenchmarkRecordSingleVCPU(b *testing.B) {
	r := NewRecorder(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := benchEvent(i)
		e.VCPU = 0
		r.Record(e)
	}
}

// BenchmarkRecordLargeRing cycles a ring too big for cache: every slot
// store misses. This is the regime a retain-everything capacity buys into.
func BenchmarkRecordLargeRing(b *testing.B) {
	r := NewRecorder(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := benchEvent(i)
		e.VCPU = 0
		r.Record(e)
	}
}

// BenchmarkFlightRecord is the flight ring's producer path as the snp
// machine drives it with tracing off: claim the slot, fill it in place.
func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlight(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := benchEvent(i)
		e := f.Alloc(ev.Class)
		e.TS, e.Dur, e.Arg1, e.Arg2 = ev.TS, ev.Dur, ev.Arg1, ev.Arg2
		e.Seq, e.VCPU, e.VMPL = 0, ev.VCPU, ev.VMPL
		e.Class, e.Kind = ev.Class, ev.Kind
		e.Span, e.Parent = 0, 0
	}
}

// BenchmarkAllocFill is the producer fast path exactly as the snp machine
// drives it: claim the slot, fill every field in place.
func BenchmarkAllocFill(b *testing.B) {
	r := NewRecorder(1 << 13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := r.Alloc(0)
		e.TS, e.Dur, e.Arg1, e.Arg2 = uint64(i)*40, uint64(i&1023), uint64(i), 0
		e.VCPU, e.VMPL = 0, -1
		e.Class, e.Kind = ClassSyscall, Span
		e.Span, e.Parent = 0, 0
	}
}

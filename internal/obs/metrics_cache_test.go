package obs

import (
	"reflect"
	"testing"
)

// TestMetricsSnapshotCache pins the memoized-snapshot contract: a repeat
// call with nothing recorded is served from the cache yet is
// indistinguishable from a rebuild, every invalidation channel the
// sequence counter cannot see still invalidates, and snapshots handed
// out earlier stay detached.
func TestMetricsSnapshotCache(t *testing.T) {
	r := NewRecorder(64)
	r.SetKindNames([]string{"k0", "k1"})
	src := []uint64{0, 0, 0}
	r.SetCycleSource(func() []uint64 { return src })
	for i := 0; i < 10; i++ {
		r.Record(Event{TS: uint64(100 + i), Dur: 5, Kind: Span, Class: ClassSyscall, Span: uint64(i + 1)})
	}
	r.RecordRingLatency(0, 40)

	m1 := r.Metrics() // builds and primes the cache
	m2 := r.Metrics() // served from the cache (may be the same immutable view)
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("cached snapshot differs from the built one")
	}
	if rebuilt := r.metricsRebuild(); !reflect.DeepEqual(m2, rebuilt) {
		t.Fatal("cached snapshot differs from an uncached rebuild")
	}

	// The cycle source moves attribution without recording an event; a
	// cache hit must still see it, and the earlier snapshot must not.
	src[1] = 777
	if got := r.Metrics().CyclesByKind()[1]; got != 777 {
		t.Fatalf("cache hit returned stale attribution: kind 1 = %d, want 777", got)
	}
	if got := m2.CyclesByKind()[1]; got != 0 {
		t.Fatalf("earlier snapshot mutated: kind 1 = %d, want 0", got)
	}

	// RecordRingLatency mutates a histogram the sequence counter cannot
	// see; it must dirty the cache.
	r.RecordRingLatency(0, 80)
	if got := r.Metrics().RingLatHist(0).Count(); got != 2 {
		t.Fatalf("ring-latency observation not visible after cache: count = %d, want 2", got)
	}

	// Recording bumps the sequence counter and must invalidate.
	r.Record(Event{TS: 500, Dur: 9, Kind: Span, Class: ClassAudit, Span: 99})
	if got := r.Metrics().Count(ClassAudit); got != 1 {
		t.Fatalf("event recorded after snapshot not visible: audit count = %d, want 1", got)
	}
	if got := m1.Count(ClassAudit); got != 0 {
		t.Fatalf("earlier snapshot mutated: audit count = %d, want 0", got)
	}

	// The cycle source is re-read on every call, hit or miss.
	src[2] = 6
	if got := r.Metrics().CyclesByKind()[2]; got != 6 {
		t.Fatalf("cycle source stale on cache hit: kind 2 = %d, want 6", got)
	}
}

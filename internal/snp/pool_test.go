package snp

import (
	"runtime"
	"testing"

	"veil/internal/obs"
)

// TestReleaseRecyclesCleanBacking pins the boot pool's safety contract:
// a released machine's dirtied memory and RMP come back from the pool
// fully cleared, so a pooled boot is indistinguishable from a fresh one.
func TestReleaseRecyclesCleanBacking(t *testing.T) {
	const pages = 16
	m := NewMachine(Config{MemBytes: pages * PageSize, VCPUs: 1})
	if err := m.HVAssignPage(0); err != nil {
		t.Fatal(err)
	}
	if err := m.PValidate(VMPL0, 0, true); err != nil {
		t.Fatal(err)
	}
	for i := range m.mem {
		m.mem[i] = 0xAB
	}
	m.Release()
	if m.mem != nil || m.rmp != nil {
		t.Fatal("Release left backing attached")
	}
	m.Release() // double release is a no-op

	b := acquireBacking(pages)
	if b == nil {
		t.Skip("pool did not retain the backing (GC raced the test)")
	}
	if uint64(len(b.rmp)) != pages || uint64(len(b.mem)) != pages*PageSize {
		t.Fatalf("recycled backing has wrong shape: %d mem bytes, %d rmp entries", len(b.mem), len(b.rmp))
	}
	for i, v := range b.mem {
		if v != 0 {
			t.Fatalf("recycled memory not cleared at byte %d: %#x", i, v)
		}
	}
	zero := RMPEntry{}
	for i, e := range b.rmp {
		if e != zero {
			t.Fatalf("recycled RMP not cleared at page %d: %+v", i, e)
		}
	}
}

// TestReleaseDropsPerBootState: a caller that keeps released machines alive
// (a benchmark keeping its rounds) pins only the Machine structs, not their
// RMP baselines, flight rings or VMSA maps.
func TestReleaseDropsPerBootState(t *testing.T) {
	const (
		machines = 8
		pages    = 4096
	)
	liveHeap := func() uint64 {
		// Two cycles: the first moves pooled backings to the victim cache,
		// the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	kept := make([]*Machine, machines)
	for i := range kept {
		m := NewMachine(Config{MemBytes: pages * PageSize, VCPUs: 1})
		m.SetFlight(obs.NewFlight(0))
		m.SnapshotRMPBaseline()
		m.vmsas[0] = &VMSA{}
		m.Release()
		kept[i] = m
	}
	after := liveHeap()
	runtime.KeepAlive(kept)
	if after > before {
		if per := (after - before) / machines; per > 4<<10 {
			t.Fatalf("each released machine still pins %d bytes of live heap", per)
		}
	}
}

// TestReleaseInvalidatesCursors: a cursor into a released machine must not
// take its fast path against recycled memory.
func TestReleaseInvalidatesCursors(t *testing.T) {
	m := NewMachine(Config{MemBytes: 16 * PageSize, VCPUs: 1})
	gen := m.tlbGen
	m.Release()
	if m.tlbGen == gen {
		t.Fatal("Release did not bump tlbGen; stale SpanCursors would still validate")
	}
}

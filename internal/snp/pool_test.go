package snp

import (
	"bytes"
	"runtime"
	"testing"

	"veil/internal/obs"
)

// TestReleaseRecyclesCleanBacking pins the boot pool's safety contract:
// a released machine's dirtied memory, RMP and written bitmap come back
// from the pool fully cleared, so a pooled boot is indistinguishable from
// a fresh one. Memory is dirtied through the architectural write paths —
// the hypervisor on shared pages, the guest on its validated page — since
// those are what the pool's written-page clear relies on.
func TestReleaseRecyclesCleanBacking(t *testing.T) {
	const pages = 16
	m := NewMachine(Config{MemBytes: pages * PageSize, VCPUs: 1})
	if err := m.HVAssignPage(0); err != nil {
		t.Fatal(err)
	}
	if err := m.PValidate(VMPL0, 0, true); err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xAB}, PageSize)
	if err := m.GuestWritePhys(VMPL0, CPL0, 0, junk); err != nil {
		t.Fatal(err)
	}
	for p := uint64(1); p < pages; p++ {
		if err := m.HVWritePhys(p*PageSize, junk); err != nil {
			t.Fatal(err)
		}
	}
	m.Release()
	if m.written != nil {
		t.Fatal("Release left the written bitmap attached")
	}
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
	for i, w := range b.written {
		if w != 0 {
			t.Fatalf("recycled written bitmap not cleared at word %d: %#x", i, w)
		}
	}
}

// TestReleaseDropsPerBootState: a caller that keeps released machines alive
// (a benchmark keeping its rounds) pins only the Machine structs, not their
// RMP baselines, flight rings or VMSA registries.
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
		m.vmsas[0] = append(m.vmsas[0], vmsaSlot{})
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

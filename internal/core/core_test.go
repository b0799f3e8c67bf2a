package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"veil/internal/snp"
)

func TestDefaultLayoutPartitions(t *testing.T) {
	lay, err := DefaultLayout(64<<20, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Regions are ordered and non-overlapping.
	if !(lay.BootVMSA < lay.MonImage && lay.MonImage < lay.MonHeapLo &&
		lay.MonHeapLo < lay.MonHeapHi && lay.MonHeapHi <= lay.GHCBBase &&
		lay.GHCBBase < lay.IDCBBase && lay.IDCBBase == lay.KernelLo &&
		lay.KernelMemLo() < lay.KernelHi) {
		t.Fatalf("layout out of order: %+v", lay)
	}
	// GHCB pages: monitor block then kernel block, one per VCPU each.
	if lay.MonGHCB(3) >= lay.KernelGHCB(0) {
		t.Fatal("monitor and kernel GHCB blocks overlap")
	}
	if lay.KernelGHCB(3)+snp.PageSize != lay.IDCBBase {
		t.Fatalf("GHCB region does not abut IDCBs: %#x vs %#x", lay.KernelGHCB(3), lay.IDCBBase)
	}
	// IDCBs per VCPU are distinct.
	seen := map[uint64]bool{}
	for v := 0; v < 4; v++ {
		for _, p := range []uint64{lay.MonIDCB(v), lay.SrvIDCB(v)} {
			if seen[p] {
				t.Fatalf("IDCB page %#x reused", p)
			}
			seen[p] = true
		}
	}
}

func TestDefaultLayoutTooSmall(t *testing.T) {
	if _, err := DefaultLayout(1<<20, 4, 1<<20); err == nil {
		t.Fatal("absurd layout accepted")
	}
}

func TestRegionSetSanitize(t *testing.T) {
	var rs RegionSet
	if err := rs.Add(0x1000, 0x3000, "mon"); err != nil {
		t.Fatal(err)
	}
	if err := rs.Add(0x5000, 0x6000, "log"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ptr, n uint64
		bad    bool
	}{
		{0x0, 0x1000, false},    // ends exactly at region start
		{0x1000, 1, true},       // first protected byte
		{0x2FFF, 1, true},       // last protected byte
		{0x3000, 0x2000, false}, // gap between regions
		{0x4FFF, 2, true},       // crosses into log
		{0x6000, 64, false},     // past everything
		{0x0, 0x10000, true},    // covers everything
	}
	for i, c := range cases {
		err := rs.Sanitize(c.ptr, c.n)
		if (err != nil) != c.bad {
			t.Errorf("case %d: Sanitize(%#x,%d) = %v, want bad=%v", i, c.ptr, c.n, err, c.bad)
		}
	}
	if label, _ := rs.Overlaps(0x1500, 1); label != "mon" {
		t.Fatalf("Overlaps label = %q", label)
	}
}

func TestRegionSetRemove(t *testing.T) {
	var rs RegionSet
	_ = rs.Add(0x1000, 0x2000, "enclave-1")
	_ = rs.Add(0x3000, 0x4000, "enclave-1")
	_ = rs.Add(0x5000, 0x6000, "enclave-2")
	if n := rs.Remove("enclave-1"); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if err := rs.Sanitize(0x1000, 0x1000); err != nil {
		t.Fatal("removed region still protected")
	}
	if err := rs.Sanitize(0x5000, 1); err == nil {
		t.Fatal("remaining region unprotected")
	}
	if len(rs.regions) != 1 {
		t.Fatalf("Len = %d", len(rs.regions))
	}
}

// Property: Sanitize(p, n) errors iff some protected byte lies in [p, p+n)
// or the range runs past 2^64.
func TestRegionSetSanitizeProperty(t *testing.T) {
	var rs RegionSet
	_ = rs.Add(100, 200, "a")
	_ = rs.Add(300, 301, "b")
	inProtected := func(x uint64) bool { return (x >= 100 && x < 200) || x == 300 }
	f := func(p uint16, n uint8, high bool) bool {
		ptr, ln := uint64(p), uint64(n)
		if ln == 0 {
			ln = 1
		}
		if high {
			// Within 512 bytes of the top: about half these ranges wrap.
			ptr = math.MaxUint64 - uint64(p%512)
			wraps := ln > math.MaxUint64-ptr
			return (rs.Sanitize(ptr, uint64(n)) != nil) == wraps
		}
		want := false
		for x := ptr; x < ptr+ln; x++ {
			if inProtected(x) {
				want = true
				break
			}
		}
		return (rs.Sanitize(ptr, uint64(n)) != nil) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIDCBRequestResponseRoundTrip(t *testing.T) {
	m := snp.NewMachine(snp.Config{MemBytes: 4 * snp.PageSize, VCPUs: 1})
	if err := m.HVAssignPage(0); err != nil {
		t.Fatal(err)
	}
	if err := m.PValidate(snp.VMPL0, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := m.RMPAdjust(snp.VMPL0, 0, snp.VMPL3, snp.PermRW); err != nil {
		t.Fatal(err)
	}
	req := Request{Svc: SvcKCI, Op: OpKciLoad, Payload: []byte("frame-list")}
	if err := WriteIDCBRequest(m, snp.VMPL3, snp.CPL0, 0, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIDCBRequest(m, snp.VMPL0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Svc != SvcKCI || got.Op != OpKciLoad || string(got.Payload) != "frame-list" {
		t.Fatalf("request round trip: %+v", got)
	}
	resp := Response{Status: StatusOK, Payload: []byte("handle")}
	if err := WriteIDCBResponse(m, snp.VMPL0, 0, resp); err != nil {
		t.Fatal(err)
	}
	rgot, err := ReadIDCBResponse(m, snp.VMPL3, snp.CPL0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rgot.Status != StatusOK || string(rgot.Payload) != "handle" {
		t.Fatalf("response round trip: %+v", rgot)
	}
}

func TestIDCBPayloadBounds(t *testing.T) {
	m := snp.NewMachine(snp.Config{MemBytes: 4 * snp.PageSize, VCPUs: 1})
	big := make([]byte, IDCBPayloadMax+1)
	err := WriteIDCBRequest(m, snp.VMPL0, snp.CPL0, 0, Request{Payload: big})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized request: %v", err)
	}
	if err := WriteIDCBResponse(m, snp.VMPL0, 0, Response{Payload: big}); err == nil {
		t.Fatal("oversized response accepted")
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	e := (&enc{}).u64(0xdeadbeef).u32(77).u8(3).bytes([]byte("xyz"))
	d := &dec{b: e.b}
	if d.u64() != 0xdeadbeef || d.u32() != 77 || d.u8() != 3 || string(d.bytes()) != "xyz" {
		t.Fatal("enc/dec mismatch")
	}
	if d.err != nil {
		t.Fatal(d.err)
	}
	// Over-read latches an error and returns zero values.
	if d.u64() != 0 || d.err == nil {
		t.Fatal("over-read not detected")
	}
}

func TestDecTruncatedBytes(t *testing.T) {
	e := (&enc{}).u32(100) // claims 100 bytes, provides none
	d := &dec{b: e.b}
	if d.bytes() != nil || d.err == nil {
		t.Fatal("truncated bytes accepted")
	}
}

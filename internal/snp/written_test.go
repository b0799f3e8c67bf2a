package snp

// The written-page bitmap's contract: a page whose bit is clear is all
// zero. Every write funnel must set the bit, no read may, and the
// PVALIDATE scrub and the boot pool may skip exactly the clear pages.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// writtenWorld is a small machine whose low writtenDataPages pages are
// mapped one-to-one at VMPL0/CPL0 through tables that start at page
// writtenTablePage. Pages from writtenSharedPg up stay hypervisor-owned.
type writtenWorld struct {
	m   *Machine
	ctx AccessContext
}

const (
	writtenPages     = 32
	writtenDataPages = 8
	writtenTablePage = 8  // four table pages: 8..11
	writtenSharedPg  = 16 // pages 16.. stay shared
)

func newWrittenWorld(tb testing.TB) *writtenWorld {
	tb.Helper()
	m := NewMachine(Config{MemBytes: writtenPages * PageSize, VCPUs: 1})
	for p := uint64(0); p < writtenSharedPg; p++ {
		if err := m.HVAssignPage(p * PageSize); err != nil {
			tb.Fatal(err)
		}
		if err := m.PValidate(VMPL0, p*PageSize, true); err != nil {
			tb.Fatal(err)
		}
	}
	cr3 := uint64(writtenTablePage * PageSize)
	ctx := AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: cr3}
	// One table page per level maps virtual pages 0..writtenDataPages-1
	// to the same physical pages.
	for level := PTLevels - 1; level >= 1; level-- {
		table := cr3 + uint64(PTLevels-1-level)*PageSize
		if err := ctx.WritePTE(table, 0, MakePTE(table+PageSize, PTEPresent|PTEWrite|PTEUser)); err != nil {
			tb.Fatal(err)
		}
	}
	leaf := cr3 + (PTLevels-1)*PageSize
	for p := uint64(0); p < writtenDataPages; p++ {
		if err := ctx.WritePTE(leaf, p, MakePTE(p*PageSize, PTEPresent|PTEWrite|PTEUser)); err != nil {
			tb.Fatal(err)
		}
	}
	return &writtenWorld{m: m, ctx: ctx}
}

// checkUnwrittenZero fails the test if any clear-bit page holds data.
func checkUnwrittenZero(tb testing.TB, m *Machine, after string) {
	tb.Helper()
	if n, d := m.AuditUnwrittenZero(4); n != 0 {
		tb.Fatalf("after %s: %d unwritten pages hold data: %v", after, n, d)
	}
}

// TestWriteFunnelsSetWrittenBit runs every architectural memory path once
// on a page whose bit is clear: each write path must set the bit, and no
// read or fetch may.
func TestWriteFunnelsSetWrittenBit(t *testing.T) {
	const (
		private = 2 * PageSize               // validated, mapped at virt 2 pages
		shared  = writtenSharedPg * PageSize // hypervisor-owned
	)
	var word [8]byte
	var g GHCB
	cases := []struct {
		name  string
		phys  uint64
		write bool
		op    func(w *writtenWorld) error
	}{
		{"HVWritePhys", shared, true, func(w *writtenWorld) error { return w.m.HVWritePhys(shared+8, []byte{1}) }},
		{"HVReadPhys", shared, false, func(w *writtenWorld) error { return w.m.HVReadPhys(shared+8, word[:]) }},
		{"GuestWritePhys", private, true, func(w *writtenWorld) error { return w.m.GuestWritePhys(VMPL0, CPL0, private+8, []byte{1}) }},
		{"GuestReadPhys", private, false, func(w *writtenWorld) error { return w.m.GuestReadPhys(VMPL0, CPL0, private+8, word[:]) }},
		{"HVWriteGHCB", shared, true, func(w *writtenWorld) error { return w.m.HVWriteGHCB(shared, &GHCB{ExitCode: 1}) }},
		{"HVReadGHCB", shared, false, func(w *writtenWorld) error { return w.m.HVReadGHCB(shared, &g) }},
		{"GuestWriteGHCB", shared, true, func(w *writtenWorld) error { return w.m.GuestWriteGHCB(VMPL0, CPL0, shared, &GHCB{ExitCode: 1}) }},
		{"GuestReadGHCB", shared, false, func(w *writtenWorld) error { return w.m.GuestReadGHCB(VMPL0, CPL0, shared, &g) }},
		{"Span(AccessWrite)", private, true, func(w *writtenWorld) error {
			b, err := w.m.Span(VMPL0, CPL0, private, 8, AccessWrite)
			if err == nil {
				b[0] = 1
			}
			return err
		}},
		{"Span(AccessRead)", private, false, func(w *writtenWorld) error {
			_, err := w.m.Span(VMPL0, CPL0, private, 8, AccessRead)
			return err
		}},
		{"AccessContext write, TLB miss", private, true, func(w *writtenWorld) error {
			misses := w.m.MemStats().TLBMisses
			if err := w.ctx.WriteU64(private, 1); err != nil {
				return err
			}
			if w.m.MemStats().TLBMisses == misses {
				t.Fatal("write did not miss the TLB")
			}
			return nil
		}},
		{"AccessContext write, TLB hit", private, true, func(w *writtenWorld) error {
			// Warm the translation and its cached write verdict with a
			// zero store, then clear the bit again: the page is still all
			// zero, so the invariant holds going into the hit.
			if err := w.ctx.WriteU64(private, 0); err != nil {
				return err
			}
			w.m.written[private>>PageShift>>6] &^= 1 << (private >> PageShift & 63)
			hits, misses := w.m.MemStats().TLBHits, w.m.MemStats().TLBMisses
			if err := w.ctx.WriteU64(private, 1); err != nil {
				return err
			}
			if s := w.m.MemStats(); s.TLBHits == hits || s.TLBMisses != misses {
				t.Fatal("write did not hit the TLB")
			}
			return nil
		}},
		{"AccessContext read, TLB hit", private, false, func(w *writtenWorld) error {
			for range 2 {
				if _, err := w.ctx.ReadU64(private); err != nil {
					return err
				}
			}
			return nil
		}},
		{"AccessContext fetch check", private, false, func(w *writtenWorld) error { return w.ctx.FetchCheck(private) }},
		{"LaunchLoad", writtenSharedPg*PageSize + PageSize, true, func(w *writtenWorld) error {
			return w.m.LaunchLoad(writtenSharedPg*PageSize+PageSize, []byte("boot image"))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWrittenWorld(t)
			pi := tc.phys >> PageShift
			if w.m.pageWritten(pi) {
				t.Fatal("target page starts written")
			}
			if err := tc.op(w); err != nil {
				t.Fatal(err)
			}
			if got := w.m.pageWritten(pi); got != tc.write {
				t.Fatalf("written bit = %v after %s, want %v", got, tc.name, tc.write)
			}
			checkUnwrittenZero(t, w.m, tc.name)
		})
	}
}

// TestPValidateZeroesWrittenPage: accepting a page the hypervisor wrote
// clears its bytes and its bit; accepting an unwritten page leaves both.
func TestPValidateZeroesWrittenPage(t *testing.T) {
	m := NewMachine(Config{MemBytes: 4 * PageSize, VCPUs: 1})
	if err := m.HVWritePhys(0, bytes.Repeat([]byte{0xAA}, PageSize)); err != nil {
		t.Fatal(err)
	}
	for _, phys := range []uint64{0, PageSize} {
		if err := m.HVAssignPage(phys); err != nil {
			t.Fatal(err)
		}
		if err := m.PValidate(VMPL0, phys, true); err != nil {
			t.Fatal(err)
		}
		if m.pageWritten(phys >> PageShift) {
			t.Fatalf("page %#x still marked written after PVALIDATE", phys)
		}
		if !bytes.Equal(m.rawPage(phys>>PageShift), zeroPage[:]) {
			t.Fatalf("page %#x not zero after PVALIDATE", phys)
		}
	}
	checkUnwrittenZero(t, m, "PVALIDATE")
}

// TestRevalidatedGuestPageReadsZero: a page the guest wrote, rescinded,
// handed back to the hypervisor, reassigned and accepted again reads zero —
// the guest never sees its own (or anyone's) earlier bytes.
func TestRevalidatedGuestPageReadsZero(t *testing.T) {
	m := testMachine(t, 2, 1)
	secret := bytes.Repeat([]byte{0x5E}, PageSize)
	if err := m.GuestWritePhys(VMPL0, CPL0, 0, secret); err != nil {
		t.Fatal(err)
	}
	if err := m.PValidate(VMPL0, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := m.HVReclaimPage(0); err != nil {
		t.Fatal(err)
	}
	if err := m.HVAssignPage(0); err != nil {
		t.Fatal(err)
	}
	if err := m.PValidate(VMPL0, 0, true); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := m.GuestReadPhys(VMPL0, CPL0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, zeroPage[:]) {
		t.Fatal("revalidated page shows bytes written before it was rescinded")
	}
	checkUnwrittenZero(t, m, "revalidation")
}

// TestAuditUnwrittenZeroCatchesRawWrite: a store made behind the bitmap's
// back is exactly what the audit reports; data on a written page is not.
func TestAuditUnwrittenZeroCatchesRawWrite(t *testing.T) {
	m := testMachine(t, 4, 2)
	if err := m.GuestWritePhys(VMPL0, CPL0, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	checkUnwrittenZero(t, m, "an architectural write")
	m.mem[PageSize+100] = 0xEE
	n, details := m.AuditUnwrittenZero(0)
	if n != 1 || len(details) != 1 || !strings.Contains(details[0], "0x1000") {
		t.Fatalf("raw write: got %d violations %v, want one naming page 0x1000", n, details)
	}
}

// runWrittenOps drives one op stream against a writtenWorld, checking the
// bitmap invariant after every op. Each op is three bytes: opcode, page,
// value. Guest accesses are only issued where the RMP allows them, so the
// machine never halts and every op stays meaningful.
func runWrittenOps(t *testing.T, data []byte) {
	w := newWrittenWorld(t)
	defer func() { w.m.Release() }()
	checkUnwrittenZero(t, w.m, "setup")
	for i := 0; i+2 < len(data); i += 3 {
		op, pg, val := data[i]%10, uint64(data[i+1])%writtenPages, data[i+2]
		phys := pg*PageSize + uint64(val)*8
		m := w.m
		e := m.rmp[pg]
		switch op {
		case 0: // hypervisor store (refused on assigned pages)
			_ = m.HVWritePhys(phys, []byte{val, val | 1})
		case 1: // guest store through the physical path
			if e.guestAccessOK(VMPL0, CPL0, AccessWrite) {
				if err := m.GuestWritePhys(VMPL0, CPL0, phys, []byte{val | 1}); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // zero-copy span store
			if e.guestAccessOK(VMPL0, CPL0, AccessWrite) {
				b, err := m.Span(VMPL0, CPL0, phys, 8, AccessWrite)
				if err != nil {
					t.Fatal(err)
				}
				b[0] = val | 1
			}
		case 3: // virtual store, twice: a TLB miss, then a hit
			virt := (pg%writtenDataPages)*PageSize + uint64(val)*8
			target, err := w.ctx.Translate(virt, AccessWrite)
			if err != nil || target >= writtenPages*PageSize ||
				!m.rmp[target>>PageShift].guestAccessOK(VMPL0, CPL0, AccessWrite) {
				break
			}
			for k := range uint64(2) {
				if err := w.ctx.WriteU64(virt, uint64(val)+k+1); err != nil {
					t.Fatal(err)
				}
			}
		case 4: // GHCB stores from either side
			g := &GHCB{ExitCode: uint64(val) + 1}
			if val&1 == 0 {
				_ = m.HVWriteGHCB(pg*PageSize, g)
			} else if e.guestAccessOK(VMPL0, CPL0, AccessWrite) {
				if err := m.GuestWriteGHCB(VMPL0, CPL0, pg*PageSize, g); err != nil {
					t.Fatal(err)
				}
			}
		case 5: // hypervisor donates or reclaims the page
			if !e.Assigned {
				_ = m.HVAssignPage(pg * PageSize)
			} else {
				_ = m.HVReclaimPage(pg * PageSize)
			}
		case 6, 7: // PVALIDATE on (6) or off (7)
			validate := op == 6
			if e.Assigned && !e.VMSA && e.Validated != validate {
				if err := m.PValidate(VMPL0, pg*PageSize, validate); err != nil {
					t.Fatal(err)
				}
				if validate && !bytes.Equal(m.rawPage(pg), zeroPage[:]) {
					t.Fatalf("op %d: page %d not zero after PVALIDATE", i/3, pg)
				}
			}
		case 8: // reads leave the bitmap alone
			before := m.pageWritten(pg)
			var b [8]byte
			_ = m.HVReadPhys(phys, b[:])
			if e.guestAccessOK(VMPL0, CPL0, AccessRead) {
				if err := m.GuestReadPhys(VMPL0, CPL0, phys, b[:]); err != nil {
					t.Fatal(err)
				}
			}
			if m.pageWritten(pg) != before {
				t.Fatalf("op %d: a read changed page %d's written bit", i/3, pg)
			}
		case 9: // release and boot again from the pool
			m.Release()
			fresh := NewMachine(Config{MemBytes: writtenPages * PageSize, VCPUs: 1})
			for pi := range uint64(writtenPages) {
				if fresh.pageWritten(pi) || !bytes.Equal(fresh.rawPage(pi), zeroPage[:]) {
					t.Fatalf("op %d: recycled page %d is not clean", i/3, pi)
				}
			}
			fresh.Release()
			w = newWrittenWorld(t)
		}
		if w.m.Halted() != nil {
			t.Fatalf("op %d halted the machine: %v", i/3, w.m.Halted())
		}
		checkUnwrittenZero(t, w.m, fmt.Sprintf("op %d (opcode %d)", i/3, op))
	}
}

func TestWrittenBitmapSeeded(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for range 20 {
		data := make([]byte, 3*200)
		r.Read(data)
		runWrittenOps(t, data)
	}
}

// FuzzWrittenBitmap runs arbitrary op streams over every write path, page
// state change and pool recycle, checking the bitmap invariant after each.
func FuzzWrittenBitmap(f *testing.F) {
	f.Add([]byte{0, 16, 1, 5, 16, 0, 6, 16, 0})                // shared write, donate, accept
	f.Add([]byte{1, 2, 3, 7, 2, 0, 5, 2, 0, 5, 2, 0, 6, 2, 0}) // guest write, rescind, reclaim, reassign, accept
	f.Add([]byte{3, 1, 4, 3, 1, 4, 9, 0, 0, 3, 1, 4})          // TLB miss then hit, recycle
	r := rand.New(rand.NewSource(42))
	big := make([]byte, 3*64)
	r.Read(big)
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*128 {
			t.Skip("cap stream length")
		}
		runWrittenOps(t, data)
	})
}

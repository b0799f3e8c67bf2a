package snp

// Differential testing of the memory funnels' fast paths. The reference
// implementations below are the funnels as they were before their fast
// paths: every access ran the full check chain (running, range, RMP or
// shared-page check, and for virtual accesses the TLB translation with
// permCheck deciding), building its refusal inline. The harness drives the
// shipped funnels on one machine and the references on an identically
// built twin, over one operation stream, and compares everything either
// side can observe.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"veil/internal/obs"
)

// refGuestAccessPhys is the reference for guestAccessPhys.
func (m *Machine) refGuestAccessPhys(vmpl VMPL, cpl CPL, phys uint64, n int, a Access, virt uint64) ([]byte, error) {
	if err := m.checkRunning(); err != nil {
		return nil, err
	}
	pi, err := m.physRange(phys, n)
	if err != nil {
		return nil, err
	}
	if err := m.rmp[pi].checkGuestAccess(vmpl, cpl, a); err != nil {
		f := err.(*Fault)
		f.Virt, f.Phys = virt, phys
		m.Halt(f)
		return nil, f
	}
	if a == AccessWrite {
		m.markWritten(pi)
		if m.isPTPage(pi) {
			m.invalidatePTPage(pi)
		}
	}
	return m.mem[phys : phys+uint64(n)], nil
}

// refHostAccessPhys is the reference for hostAccessPhys.
func (m *Machine) refHostAccessPhys(phys uint64, n int, a Access) ([]byte, error) {
	pi, err := m.physRange(phys, n)
	if err != nil {
		return nil, err
	}
	if m.rmp[pi].Assigned {
		if a == AccessWrite {
			m.ObserveDenied(DeniedHVWrite, PageBase(phys))
			return nil, fmt.Errorf("snp: hypervisor write to guest-assigned page %#x blocked", PageBase(phys))
		}
		m.ObserveDenied(DeniedHVRead, PageBase(phys))
		return nil, fmt.Errorf("snp: hypervisor read of guest-assigned page %#x blocked", PageBase(phys))
	}
	if a == AccessWrite {
		m.markWritten(pi)
		if m.isPTPage(pi) {
			m.invalidatePTPage(pi)
		}
	}
	return m.mem[phys : phys+uint64(n)], nil
}

// refTranslateTLB is the reference for translateTLB, with permCheck
// deciding.
func (a AccessContext) refTranslateTLB(virt uint64, acc Access) (uint64, *tlbEntry, error) {
	if a.CR3 == 0 {
		return 0, nil, &Fault{Kind: FaultGP, VMPL: a.VMPL, CPL: a.CPL, Virt: virt, Why: "null CR3"}
	}
	if virt>>VirtBits != 0 {
		return 0, nil, &Fault{Kind: FaultPF, VMPL: a.VMPL, CPL: a.CPL, Access: acc, Virt: virt, Why: "non-canonical address"}
	}
	m := a.M
	key := tlbKey{cr3: a.CR3, vpage: virt >> PageShift, vmpl: a.VMPL, cpl: a.CPL}
	e := m.tlbSlot(key)
	if m.tlbLive(e, key) {
		m.memStats.TLBHits++
		phys := e.physPage | PageOffset(virt)
		if err := a.permCheck(virt, phys, e.eff, e.effNX, acc); err != nil {
			return 0, nil, err
		}
		return phys, e, nil
	}
	m.memStats.TLBMisses++
	physPage, eff, effNX, deps, err := a.walk(virt, acc)
	if err != nil {
		return 0, nil, err
	}
	if !m.tlbFill(e, key, physPage, eff, effNX, deps) {
		e = nil
	}
	phys := physPage | PageOffset(virt)
	if err := a.permCheck(virt, phys, eff, effNX, acc); err != nil {
		return 0, nil, err
	}
	return phys, e, nil
}

// refSpan is the reference for AccessContext.span.
func (a AccessContext) refSpan(virt uint64, n int, acc Access) ([]byte, error) {
	m := a.M
	phys, e, err := a.refTranslateTLB(virt, acc)
	if err != nil {
		if f, ok := AsFault(err); ok {
			m.ObserveFault(f)
		}
		return nil, err
	}
	if e != nil && e.rmpEpoch == m.tlbRMPEpoch && e.rmpOK&(1<<uint(acc)) != 0 {
		if err := m.checkRunning(); err != nil {
			return nil, err
		}
		if n < 0 || PageOffset(phys)+uint64(n) > PageSize {
			return nil, fmt.Errorf("snp: physical access %#x+%d crosses a page boundary", phys, n)
		}
		if acc == AccessWrite {
			pi := phys >> PageShift
			m.markWritten(pi)
			if m.isPTPage(pi) {
				m.invalidatePTPage(pi)
			}
		}
		return m.mem[phys : phys+uint64(n)], nil
	}
	buf, err := m.refGuestAccessPhys(a.VMPL, a.CPL, phys, n, acc, virt)
	if err != nil {
		return nil, err
	}
	if e != nil {
		if e.rmpEpoch != m.tlbRMPEpoch {
			e.rmpEpoch = m.tlbRMPEpoch
			e.rmpOK = 0
		}
		e.rmpOK |= 1 << uint(acc)
	}
	return buf, nil
}

// accessPair is the shipped machine (got) beside its reference twin (ref),
// both built by buildDiffWorld and carrying a flight ring.
type accessPair struct {
	got, ref *diffWorld
}

func newAccessPair(tb testing.TB) *accessPair {
	tb.Helper()
	p := &accessPair{got: buildDiffWorld(tb), ref: buildDiffWorld(tb)}
	for _, w := range []*diffWorld{p.got, p.ref} {
		w.m.SetFlight(obs.NewFlight(32))
		// Every other group C page is shared, for the host funnel and
		// for guest accesses to shared memory.
		for i := 1; i < diffGroupPages; i += 2 {
			if err := w.m.PValidate(VMPL0, diffPhys(2, i), false); err != nil {
				tb.Fatal(err)
			}
			if err := w.m.HVReclaimPage(diffPhys(2, i)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return p
}

// both runs fn on the shipped world, then on the reference world.
func (p *accessPair) both(fn func(w *diffWorld) error) (got, ref error) {
	return fn(p.got), fn(p.ref)
}

// accessPages is how many pages of each group the harness touches: few
// enough that translations and RMP verdicts are reused and the fast paths
// run.
const accessPages = 6

// pickPhys draws a physical address: a data page, a page-table page, a
// mapped-nowhere page, the last byte of memory or past it, each at an
// offset drawn from off.
func (p *accessPair) pickPhys(sel, off byte) uint64 {
	w := p.got
	o := uint64(off) * 17 % PageSize
	switch sel % 8 {
	case 0, 1, 2:
		return diffPhys(int(sel>>3)%3, int(off)%accessPages) + o
	case 3:
		return []uint64{w.cr3, w.l1, w.leafA, w.leafB, w.leafC}[int(off)%5] + o&^7
	case 4:
		return 300*PageSize + o
	case 5:
		return w.m.cfg.MemBytes - 1
	case 6:
		return w.m.cfg.MemBytes + o
	}
	return PageBase(diffPhys(0, int(off)%diffGroupPages))
}

// pickN draws an access length relative to phys: empty, small, the exact
// rest of the page, one past it, a whole GHCB, negative or huge.
func pickN(sel byte, phys uint64) int {
	rest := int(PageSize - PageOffset(phys))
	switch sel % 10 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 8
	case 3:
		return rest
	case 4:
		return rest + 1
	case 5:
		return ghcbSize
	case 6:
		return -1
	case 7:
		return int(^uint(0) >> 1)
	case 8:
		return PageSize
	}
	return int(sel) % 64
}

// pickVirt draws a virtual address: a mapped page of one of the three
// groups at some offset, an unmapped page, or a non-canonical address.
func pickVirt(sel, off byte) uint64 {
	o := uint64(off) * 29 % PageSize
	switch sel % 6 {
	case 0, 1, 2:
		return diffVirt(int(sel>>3)%3, int(off)%accessPages) + o
	case 3:
		return uint64(diffGroupPages+int(off)%8)*PageSize + o
	case 4:
		return 1<<VirtBits | o
	}
	return diffVirt(0, int(off)%accessPages) + PageSize - 1
}

// compareAccess checks that the two sides of one funnel call agree: the
// slice's offset into memory and length, the error text and every field
// of a *Fault.
func (p *accessPair) compareAccess(tb testing.TB, what string, got, ref []byte, gotErr, refErr error) {
	tb.Helper()
	if (gotErr == nil) != (refErr == nil) {
		tb.Fatalf("%s: err %v, reference %v", what, gotErr, refErr)
	}
	if gotErr != nil {
		if gotErr.Error() != refErr.Error() {
			tb.Fatalf("%s: error text\n  got: %v\n  ref: %v", what, gotErr, refErr)
		}
		gf, gok := gotErr.(*Fault)
		rf, rok := refErr.(*Fault)
		if gok != rok || (gok && *gf != *rf) {
			tb.Fatalf("%s: fault %+v, reference %+v", what, gotErr, refErr)
		}
		if got != nil || ref != nil {
			tb.Fatalf("%s: a refusal returned a slice", what)
		}
		return
	}
	gotOff, refOff := cap(p.got.m.mem)-cap(got), cap(p.ref.m.mem)-cap(ref)
	if gotOff != refOff || len(got) != len(ref) {
		tb.Fatalf("%s: slice at %#x+%d, reference at %#x+%d", what, gotOff, len(got), refOff, len(ref))
	}
}

// compareState checks every piece of machine state the funnels touch.
func (p *accessPair) compareState(tb testing.TB, what string) {
	tb.Helper()
	g, r := p.got.m, p.ref.m
	gh, rh := g.Halted(), r.Halted()
	if (gh == nil) != (rh == nil) || (gh != nil && *gh != *rh) {
		tb.Fatalf("%s: halted %v, reference %v", what, gh, rh)
	}
	if g.MemStats() != r.MemStats() {
		tb.Fatalf("%s: MemStats\n  got: %+v\n  ref: %+v", what, g.MemStats(), r.MemStats())
	}
	if !slices.Equal(g.written, r.written) {
		tb.Fatalf("%s: written bitmaps differ", what)
	}
	if g.ptWrites != r.ptWrites || !slices.Equal(g.ptGen, r.ptGen) {
		tb.Fatalf("%s: ptWrites %d/%d or ptGen differ", what, g.ptWrites, r.ptWrites)
	}
	if *g.Trace() != *r.Trace() {
		tb.Fatalf("%s: trace counters\n  got: %+v\n  ref: %+v", what, *g.Trace(), *r.Trace())
	}
	if g.FlightTailLen() != r.FlightTailLen() || g.FlightDropped() != r.FlightDropped() ||
		g.FlightDroppedByClass() != r.FlightDroppedByClass() {
		tb.Fatalf("%s: flight ring holds %d (dropped %d), reference %d (dropped %d)",
			what, g.FlightTailLen(), g.FlightDropped(), r.FlightTailLen(), r.FlightDropped())
	}
	if !slices.Equal(g.FlightTail(), r.FlightTail()) {
		tb.Fatalf("%s: flight ring events differ", what)
	}
}

// vmplOf maps a byte onto VMPL0 (half the time), VMPL1..3 or the invalid
// VMPL 4.
func vmplOf(b byte) VMPL { return VMPL(max(int(b%8)-3, 0)) }

// cplOf maps a byte onto CPL0 or CPL3.
func cplOf(b byte) CPL { return CPL(b>>3%2) * 3 }

// step consumes four bytes and applies one operation to both sides. With
// the first byte's top bit set, a machine the operation halted resumes
// afterwards, so one stream sees many refusals.
func (p *accessPair) step(tb testing.TB, d []byte) {
	tb.Helper()
	op, a, b, c := d[0], d[1], d[2], d[3]
	acc := Access(b % 4) // includes one kind the architecture does not name
	var what string
	switch op % 16 {
	case 0, 1, 2: // physical guest access
		phys := p.pickPhys(a, c)
		n := pickN(b>>2, phys)
		vmpl, cpl := vmplOf(c), cplOf(a)
		what = fmt.Sprintf("guestAccessPhys(%s,%s,%#x,%d,%s)", vmpl, cpl, phys, n, acc)
		got, gotErr := p.got.m.guestAccessPhys(vmpl, cpl, phys, n, acc, 0)
		ref, refErr := p.ref.m.refGuestAccessPhys(vmpl, cpl, phys, n, acc, 0)
		p.compareAccess(tb, what, got, ref, gotErr, refErr)
		if gotErr == nil && acc == AccessWrite {
			p.fillBoth(got, ref, c)
		}
	case 3: // host access
		phys := p.pickPhys(a, c)
		n := pickN(b>>2, phys)
		acc = Access(b % 2)
		what = fmt.Sprintf("hostAccessPhys(%#x,%d,%s)", phys, n, acc)
		got, gotErr := p.got.m.hostAccessPhys(phys, n, acc)
		ref, refErr := p.ref.m.refHostAccessPhys(phys, n, acc)
		p.compareAccess(tb, what, got, ref, gotErr, refErr)
		if gotErr == nil && acc == AccessWrite {
			p.fillBoth(got, ref, c)
		}
	case 4, 5, 6, 7, 8, 9, 10, 11: // virtual access
		virt := pickVirt(a, c)
		n := pickN(b>>2, virt)
		vmpl, cpl := vmplOf(c>>4), cplOf(a)
		cr3 := p.got.cr3
		if c%16 == 15 {
			cr3 = 0
		}
		what = fmt.Sprintf("span(%s,%s,cr3=%#x,%#x,%d,%s)", vmpl, cpl, cr3, virt, n, acc)
		// A one-byte access first, then the drawn one twice: a repeat is
		// the TLB hit with a cached RMP verdict, which the drawn length,
		// a halt or a table write since the last hit may still refuse.
		for i, n := range []int{1, n, n} {
			p.spanBoth(tb, fmt.Sprintf("%s #%d", what, i), vmpl, cpl, cr3, virt, n, acc, c)
		}
	case 12: // RMP change on a data page
		phys := diffPhys(int(a)%3, int(c)%accessPages)
		what = fmt.Sprintf("rmp op %d on %#x", b%6, phys)
		gotErr, refErr := p.both(func(w *diffWorld) error {
			switch b % 6 {
			case 0, 1:
				return w.m.RMPAdjust(VMPL0, phys, VMPL1+VMPL(a%3), Perm(c)&PermAll)
			case 2: // rescind validation
				return w.m.PValidate(VMPL0, phys, false)
			case 3: // make an unvalidated page shared
				return w.m.HVReclaimPage(phys)
			case 4: // and private again
				if err := w.m.HVAssignPage(phys); err != nil {
					return err
				}
				return w.m.PValidate(VMPL0, phys, true)
			}
			if w.m.rmp[phys>>PageShift].VMSA {
				return w.m.DestroyVMSA(VMPL0, phys)
			}
			return w.m.CreateVMSA(VMPL0, phys, VMSA{VMPL: VMPL(a % 4)}, nopContext)
		})
		p.compareErr(tb, what, gotErr, refErr)
	case 13: // PTE rewrite through the software write path
		g, i := int(a)%3, int(c)%accessPages
		leaf := []uint64{p.got.leafA, p.got.leafB, p.got.leafC}[g]
		flags := PTEPresent | uint64(b)&(PTEWrite|PTEUser)
		if b&8 != 0 {
			flags |= PTENX
		}
		if b&16 != 0 {
			flags &^= PTEPresent
		}
		what = fmt.Sprintf("WritePTE(%#x,%d,%#x)", leaf, i, flags)
		// The page is accessed through the old entry, then through the
		// new one: a translation that survived the write is stale.
		virt, cpl := diffVirt(g, i), cplOf(a)
		p.spanBoth(tb, what+" before", VMPL0, cpl, p.got.cr3, virt, 8, acc, c)
		gotErr, refErr := p.both(func(w *diffWorld) error {
			return w.ctx.WritePTE(leaf, uint64(i), MakePTE(diffPhys(g, i), flags))
		})
		p.compareErr(tb, what, gotErr, refErr)
		p.spanBoth(tb, what+" after", VMPL0, cpl, p.got.cr3, virt, 8, acc, c)
	case 14: // halt a running machine
		what = "halt"
		p.both(func(w *diffWorld) error {
			w.m.Halt(&Fault{Kind: FaultNPF, Phys: uint64(c), Why: "halted by the test"})
			return nil
		})
	case 15: // RMP verdicts die everywhere
		what = "RMP epoch bump"
		p.both(func(w *diffWorld) error {
			w.m.rmpFlushTLB()
			return nil
		})
	}
	p.compareState(tb, what)
	if op&0x80 != 0 && p.got.m.halted != nil {
		p.both(func(w *diffWorld) error {
			w.m.halted, w.m.pm = nil, nil
			return nil
		})
	}
}

// spanBoth runs one virtual access on both sides and compares them; a
// write fills the span.
func (p *accessPair) spanBoth(tb testing.TB, what string, vmpl VMPL, cpl CPL, cr3, virt uint64, n int, acc Access, fill byte) {
	tb.Helper()
	got, gotErr := AccessContext{M: p.got.m, VMPL: vmpl, CPL: cpl, CR3: cr3}.span(virt, n, acc)
	ref, refErr := AccessContext{M: p.ref.m, VMPL: vmpl, CPL: cpl, CR3: cr3}.refSpan(virt, n, acc)
	p.compareAccess(tb, what, got, ref, gotErr, refErr)
	if gotErr == nil && acc == AccessWrite {
		p.fillBoth(got, ref, fill)
	}
}

// compareErr checks that an operation failed identically on both sides.
func (p *accessPair) compareErr(tb testing.TB, what string, got, ref error) {
	tb.Helper()
	if (got == nil) != (ref == nil) || (got != nil && got.Error() != ref.Error()) {
		tb.Fatalf("%s: err %v, reference %v", what, got, ref)
	}
}

// fillBoth writes the same bytes through a write span on each side. A
// span over a table page keeps its bytes, so the mappings survive; the
// write has invalidated the translations through it all the same.
func (p *accessPair) fillBoth(got, ref []byte, c byte) {
	if len(got) == 0 || p.got.m.isPTPage(uint64(cap(p.got.m.mem)-cap(got))>>PageShift) {
		return
	}
	for i := range got {
		got[i] = c ^ byte(i)
		ref[i] = c ^ byte(i)
	}
}

func runGuestAccessDiff(tb testing.TB, data []byte) {
	tb.Helper()
	p := newAccessPair(tb)
	defer p.got.m.Release()
	defer p.ref.m.Release()
	for ; len(data) >= 4; data = data[4:] {
		p.step(tb, data)
	}
	if !bytes.Equal(p.got.m.mem, p.ref.m.mem) {
		tb.Fatal("guest memory differs after the stream")
	}
}

// TestGuestAccessDifferentialSeeded drives seeded operation streams
// through the funnel differential: the everyday version of FuzzGuestAccess.
func TestGuestAccessDifferentialSeeded(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			data := make([]byte, 4*1000)
			rand.New(rand.NewSource(seed)).Read(data)
			runGuestAccessDiff(t, data)
		})
	}
}

// FuzzGuestAccess feeds arbitrary operation streams to the funnel
// differential: go test -fuzz FuzzGuestAccess ./internal/snp/
func FuzzGuestAccess(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0})
	f.Add([]byte{3, 0, 1, 0, 3, 0, 1, 0, 7, 0, 0, 3, 3, 0, 1, 3})
	f.Add([]byte{6, 1, 0, 4, 3, 8, 1, 4, 8, 0, 0, 0, 3, 8, 1, 4, 8, 0, 0, 0, 2, 0, 1, 4})
	big := make([]byte, 4*128)
	rand.New(rand.NewSource(33)).Read(big)
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*1024 {
			t.Skip("cap stream length")
		}
		runGuestAccessDiff(t, data)
	})
}

// TestPTEPermitsMatchesPermCheck pins ptePermits to permCheck over every
// ring, accumulated write/user bit pair, NX bit and access kind (one past
// the named kinds included).
func TestPTEPermitsMatchesPermCheck(t *testing.T) {
	cases := 0
	for _, cpl := range []CPL{CPL0, CPL3} {
		for eff := uint64(0); eff <= PTEWrite|PTEUser; eff += PTEWrite {
			for _, nx := range []bool{false, true} {
				for acc := AccessRead; acc <= AccessExec+1; acc++ {
					a := AccessContext{VMPL: VMPL3, CPL: cpl}
					ok := a.ptePermits(eff, nx, acc)
					err := a.permCheck(0x1000, 0x2000, eff, nx, acc)
					if ok != (err == nil) {
						t.Fatalf("drift at %s eff=%#x nx=%v %s: ptePermits=%v permCheck=%v", cpl, eff, nx, acc, ok, err)
					}
					cases++
				}
			}
		}
	}
	if cases != 2*4*2*4 {
		t.Fatalf("%d cases, want %d", cases, 2*4*2*4)
	}
}

package snp

// Differential testing of the software TLB: the cached translator must be
// observationally identical to the cache-free reference walker across
// arbitrary interleavings of translations, PTE rewrites, RMPADJUST calls
// and full flushes. Any divergence — in physical address, fault kind or
// fault reason — is a staleness or aliasing bug in the TLB.

import (
	"fmt"
	"math/rand"
	"testing"
)

// diffWorld is a machine with two 64-page mapped groups in separate leaf
// tables (so per-table-page invalidation has more than one target) plus the
// table pages used to reach them, and a third group reached through a
// table subtree of its own: a write there changes a table page that no
// group A or B walk read.
type diffWorld struct {
	m     *Machine
	ctx   AccessContext // VMPL0/CPL0 over cr3
	cr3   uint64
	leafA uint64 // leaf table covering group A (virt 0..64 pages)
	leafB uint64 // leaf table covering group B (virt 2MiB..+64 pages)
	l1    uint64 // level-1 table pointing at both leaves
	leafC uint64 // leaf table covering group C, under cr3's second entry
}

const (
	diffGroupPages = 64
	diffGroupBVirt = uint64(2 << 20) // second 2MiB slot: next leaf table
	diffGroupCVirt = uint64(1 << 39) // cr3 entry 1: a disjoint subtree
)

func diffVirt(group, i int) uint64 {
	switch group {
	case 0:
		return uint64(i) * PageSize
	case 1:
		return diffGroupBVirt + uint64(i)*PageSize
	}
	return diffGroupCVirt + uint64(i)*PageSize
}

func diffPhys(group, i int) uint64 {
	return uint64(group*diffGroupPages+i) * PageSize
}

func buildDiffWorld(tb testing.TB) *diffWorld {
	tb.Helper()
	const memBytes = 2 << 20
	m := NewMachine(Config{MemBytes: memBytes, VCPUs: 1})
	for p := uint64(0); p < memBytes; p += PageSize {
		if err := m.HVAssignPage(p); err != nil {
			tb.Fatal(err)
		}
		if err := m.PValidate(VMPL0, p, true); err != nil {
			tb.Fatal(err)
		}
	}
	next := uint64(256) * PageSize
	alloc := func() uint64 {
		p := next
		next += PageSize
		return p
	}
	w := &diffWorld{m: m, cr3: alloc()}
	w.ctx = AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: w.cr3}
	// cr3 → L2 → L1 → {leafA, leafB}; all virts share the top 2 indices.
	l2, l1 := alloc(), alloc()
	w.l1, w.leafA, w.leafB = l1, alloc(), alloc()
	inter := uint64(PTEPresent | PTEWrite | PTEUser)
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(w.ctx.WritePTE(w.cr3, 0, MakePTE(l2, inter)))
	must(w.ctx.WritePTE(l2, 0, MakePTE(l1, inter)))
	must(w.ctx.WritePTE(l1, 0, MakePTE(w.leafA, inter)))
	must(w.ctx.WritePTE(l1, 1, MakePTE(w.leafB, inter)))
	// cr3 → L2c → L1c → leafC shares only the root with groups A and B.
	l2c, l1c := alloc(), alloc()
	w.leafC = alloc()
	must(w.ctx.WritePTE(w.cr3, 1, MakePTE(l2c, inter)))
	must(w.ctx.WritePTE(l2c, 0, MakePTE(l1c, inter)))
	must(w.ctx.WritePTE(l1c, 0, MakePTE(w.leafC, inter)))
	for g, leaf := range []uint64{w.leafA, w.leafB, w.leafC} {
		for i := 0; i < diffGroupPages; i++ {
			must(w.ctx.WritePTE(leaf, uint64(i), MakePTE(diffPhys(g, i), inter)))
		}
	}
	return w
}

// checkOne compares the cached and reference walkers for a single
// (virt, cpl, acc) and reports any divergence.
func (w *diffWorld) checkOne(tb testing.TB, virt uint64, cpl CPL, acc Access) {
	tb.Helper()
	ctx := AccessContext{M: w.m, VMPL: VMPL0, CPL: cpl, CR3: w.cr3}
	refPhys, refErr := ctx.translateUncached(virt, acc)
	gotPhys, gotErr := ctx.Translate(virt, acc)
	if (refErr == nil) != (gotErr == nil) {
		tb.Fatalf("Translate(%#x, %v, %v) diverged: cached err=%v, reference err=%v",
			virt, cpl, acc, gotErr, refErr)
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			tb.Fatalf("Translate(%#x, %v, %v) fault diverged:\n  cached:    %v\n  reference: %v",
				virt, cpl, acc, gotErr, refErr)
		}
		return
	}
	if refPhys != gotPhys {
		tb.Fatalf("Translate(%#x, %v, %v) = %#x, reference walker says %#x",
			virt, cpl, acc, gotPhys, refPhys)
	}
}

// probeVirts are the addresses swept after every mutation: all three
// groups, a hole past groups A and B, and a non-canonical address.
func diffProbes(r byte) []uint64 {
	i := int(r) % diffGroupPages
	return []uint64{
		diffVirt(0, i),
		diffVirt(1, diffGroupPages-1-i),
		diffVirt(2, i),
		uint64(diffGroupPages+int(r)%8) * PageSize, // unmapped in group A's leaf
		diffGroupBVirt + uint64(diffGroupPages)*PageSize,
		1 << VirtBits, // non-canonical
	}
}

// step consumes bytes from data and applies one operation. It returns the
// number of bytes consumed (0 when data is exhausted).
func (w *diffWorld) step(tb testing.TB, data []byte) int {
	tb.Helper()
	if len(data) < 3 {
		return 0
	}
	op, a, b := data[0], data[1], data[2]
	g, i := int(a)%2, int(b)%diffGroupPages
	leaf := w.leafA
	if g == 1 {
		leaf = w.leafB
	}
	switch op % 7 {
	case 0: // translate at a random ring/access
		w.checkOne(tb, diffVirt(g, i), CPL(a%2)*3, Access(b%3))
	case 1: // rewrite a leaf PTE with random permission bits
		w.rewriteLeaf(tb, leaf, g, i, a, b)
	case 2: // re-point or sever an intermediate entry
		flags := uint64(PTEPresent | PTEWrite | PTEUser)
		if a&1 != 0 {
			flags &^= PTEPresent
		}
		if err := w.ctx.WritePTE(w.l1, uint64(g), MakePTE(leaf, flags)); err != nil {
			tb.Fatalf("WritePTE(l1): %v", err)
		}
	case 3: // RMPADJUST: flip a data page's VMPL3 vector (bumps the RMP epoch)
		perms := PermNone
		if a&1 != 0 {
			perms = PermRW
		}
		if err := w.m.RMPAdjust(VMPL0, diffPhys(g, i), VMPL3, perms); err != nil {
			tb.Fatalf("RMPAdjust: %v", err)
		}
	case 4: // full flush
		w.m.FlushTLB()
	case 6: // rewrite a PTE in the disjoint subtree: A and B entries revalidate
		w.rewriteLeaf(tb, w.leafC, 2, i, a, b)
	case 5: // VMPL0 data access through the span fast path, cross-checked
		virt := diffVirt(g, i)
		if refPhys, refErr := w.ctx.translateUncached(virt, AccessRead); refErr == nil {
			got, err := w.ctx.ReadU64(virt)
			if err != nil {
				tb.Fatalf("ReadU64(%#x): %v", virt, err)
			}
			var raw [8]byte
			if err := w.m.GuestReadPhys(VMPL0, CPL0, refPhys, raw[:]); err != nil {
				tb.Fatalf("GuestReadPhys(%#x): %v", refPhys, err)
			}
			if want := leU64(raw[:]); got != want {
				tb.Fatalf("ReadU64(%#x) = %#x through the TLB, %#x direct", virt, got, want)
			}
			if _, werr := w.ctx.translateUncached(virt, AccessWrite); werr == nil {
				if err := w.ctx.WriteU64(virt, got+1); err != nil {
					tb.Fatalf("WriteU64(%#x): %v", virt, err)
				}
			}
		}
	}
	// After every operation, sweep the probe set at both rings and all
	// access kinds: staleness shows up here as a divergence.
	for _, virt := range diffProbes(b) {
		for _, cpl := range []CPL{CPL0, CPL3} {
			for _, acc := range []Access{AccessRead, AccessWrite, AccessExec} {
				w.checkOne(tb, virt, cpl, acc)
			}
		}
	}
	return 3
}

// rewriteLeaf stores group g's PTE i in leaf with permission bits drawn
// from a and b.
func (w *diffWorld) rewriteLeaf(tb testing.TB, leaf uint64, g, i int, a, b byte) {
	tb.Helper()
	flags := uint64(PTEPresent)
	if a&1 != 0 {
		flags |= PTEWrite
	}
	if a&2 != 0 {
		flags |= PTEUser
	}
	if a&4 != 0 {
		flags |= PTENX
	}
	if b&1 != 0 {
		flags &^= PTEPresent // tear the mapping down entirely
	}
	if err := w.ctx.WritePTE(leaf, uint64(i), MakePTE(diffPhys(g, i), flags)); err != nil {
		tb.Fatalf("WritePTE: %v", err)
	}
}

// TestTLBHitSurvivesUnrelatedPTWrite: a write to a table page sends every
// entry's next hit through the generation recheck, but only entries whose
// walk read that page die.
func TestTLBHitSurvivesUnrelatedPTWrite(t *testing.T) {
	w := buildDiffWorld(t)
	hot, through := diffVirt(0, 3), diffVirt(2, 5)
	for _, v := range []uint64{hot, through} {
		if _, err := w.ctx.Translate(v, AccessRead); err != nil {
			t.Fatal(err)
		}
	}
	before := w.m.MemStats()
	if err := w.ctx.WritePTE(w.leafC, 7, MakePTE(diffPhys(2, 7), PTEPresent)); err != nil {
		t.Fatal(err)
	}
	if got := w.m.MemStats().TLBPTInvalidation - before.TLBPTInvalidation; got != 1 {
		t.Fatalf("leaf C write made %d table-page invalidations, want 1", got)
	}
	w.checkOne(t, hot, CPL0, AccessRead)
	after := w.m.MemStats()
	if after.TLBHits <= before.TLBHits || after.TLBMisses != before.TLBMisses {
		t.Fatalf("translation outside the written subtree: hits %d→%d, misses %d→%d; want a hit",
			before.TLBHits, after.TLBHits, before.TLBMisses, after.TLBMisses)
	}
	w.checkOne(t, through, CPL0, AccessRead)
	if got := w.m.MemStats().TLBMisses - after.TLBMisses; got != 1 {
		t.Fatalf("translation through the written leaf: %d misses, want 1", got)
	}
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func runTranslateDiff(tb testing.TB, data []byte) {
	tb.Helper()
	w := buildDiffWorld(tb)
	for len(data) > 0 {
		n := w.step(tb, data)
		if n == 0 {
			break
		}
		data = data[n:]
	}
}

// TestTranslateDifferentialSeeded drives long seeded op-streams through the
// differential harness — the deterministic everyday version of the fuzzer.
func TestTranslateDifferentialSeeded(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			data := make([]byte, 3*400)
			r.Read(data)
			runTranslateDiff(t, data)
		})
	}
}

// FuzzTranslateTLB feeds arbitrary op-streams to the differential harness:
// go test -fuzz=FuzzTranslateTLB ./internal/snp
func FuzzTranslateTLB(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{1, 3, 9, 0, 0, 9, 2, 1, 0, 0, 1, 9})
	f.Add([]byte{3, 1, 5, 0, 0, 5, 4, 0, 0, 0, 1, 5, 5, 2, 7})
	r := rand.New(rand.NewSource(42))
	big := make([]byte, 3*64)
	r.Read(big)
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*1024 {
			t.Skip("cap stream length")
		}
		runTranslateDiff(t, data)
	})
}

// TestAccessContextZeroAllocs pins the shipped per-access memory path at
// zero allocations: TLB-hit ReadU64/WriteU64 with a cached RMP verdict.
func TestAccessContextZeroAllocs(t *testing.T) {
	w := buildDiffWorld(t)
	virt := diffVirt(0, 3)
	// Warm the translation and both RMP verdicts outside the measurement.
	if _, err := w.ctx.ReadU64(virt); err != nil {
		t.Fatal(err)
	}
	if err := w.ctx.WriteU64(virt+8, 1); err != nil {
		t.Fatal(err)
	}
	hits := w.m.MemStats().TLBHits
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := w.ctx.ReadU64(virt); err != nil {
			t.Fatal(err)
		}
		if err := w.ctx.WriteU64(virt+8, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("per-access path allocates %.1f times per op, want 0", allocs)
	}
	if w.m.MemStats().TLBHits == hits {
		t.Fatal("measured accesses did not hit the TLB")
	}
}

// TestPhysFunnelsZeroAllocs pins the physical and host funnels at zero
// allocations per allowed access: Span reads and writes, a guest GHCB
// store and a hypervisor GHCB load.
func TestPhysFunnelsZeroAllocs(t *testing.T) {
	w := buildDiffWorld(t)
	m := w.m
	data, ghcb := diffPhys(0, 3), diffPhys(0, 4)
	if err := m.PValidate(VMPL0, ghcb, false); err != nil {
		t.Fatal(err)
	}
	if err := m.HVReclaimPage(ghcb); err != nil {
		t.Fatal(err)
	}
	g := new(GHCB).Exit(1, 2)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := m.Span(VMPL0, CPL0, data, 64, AccessRead); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Span(VMPL0, CPL0, data+64, 64, AccessWrite); err != nil {
			t.Fatal(err)
		}
		if err := m.GuestWriteGHCB(VMPL0, CPL0, ghcb, g); err != nil {
			t.Fatal(err)
		}
		if err := m.HVReadGHCB(ghcb, g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("physical funnels allocate %.1f times per round, want 0", allocs)
	}
}

// translateUncached is the cache-free reference walker: identical rules to
// Translate, no TLB reads, writes or counters. The differential tests
// compare the two on every operation.
func (a AccessContext) translateUncached(virt uint64, acc Access) (uint64, error) {
	if a.CR3 == 0 {
		return 0, &Fault{Kind: FaultGP, VMPL: a.VMPL, CPL: a.CPL, Virt: virt, Why: "null CR3"}
	}
	if virt>>VirtBits != 0 {
		return 0, &Fault{Kind: FaultPF, VMPL: a.VMPL, CPL: a.CPL, Access: acc, Virt: virt, Why: "non-canonical address"}
	}
	physPage, eff, effNX, _, err := a.walk(virt, acc)
	if err != nil {
		return 0, err
	}
	phys := physPage | PageOffset(virt)
	if err := a.permCheck(virt, phys, eff, effNX, acc); err != nil {
		return 0, err
	}
	return phys, nil
}

// FlushTLB invalidates every cached translation by dropping the cache:
// the full hammer beside the architectural mutators' narrower channels.
func (m *Machine) FlushTLB() {
	if m.tlbNoInvalidate {
		return
	}
	m.tlb = nil
}

package snp

import (
	"testing"
	"testing/quick"
)

// buildIdentityMap constructs a 4-level table at tableBase mapping the
// virtual range [0, pages*PageSize) to itself with the given leaf flags.
// Table pages are taken from tableBase upward. Returns the CR3 value and
// the number of table pages consumed.
func buildIdentityMap(t *testing.T, m *Machine, tableBase uint64, pages int, flags uint64) (uint64, int) {
	t.Helper()
	next := tableBase
	alloc := func() uint64 {
		p := next
		next += PageSize
		if p >= m.cfg.MemBytes {
			t.Fatal("out of table pages")
		}
		return p
	}
	cr3 := alloc()
	ctx := AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: cr3}
	// Intermediate entries get full software permissions; the leaf carries
	// the requested flags (mirrors how commodity kernels build tables).
	interFlags := PTEPresent | PTEWrite | PTEUser
	for pg := 0; pg < pages; pg++ {
		virt := uint64(pg) * PageSize
		table := cr3
		for level := PTLevels - 1; level >= 1; level-- {
			idx := ptIndex(virt, level)
			pte, err := ctx.ReadPTE(table, idx)
			if err != nil {
				t.Fatalf("read PTE: %v", err)
			}
			if pte&PTEPresent == 0 {
				child := alloc()
				if err := ctx.WritePTE(table, idx, MakePTE(child, interFlags)); err != nil {
					t.Fatalf("write intermediate PTE: %v", err)
				}
				table = child
			} else {
				table = PTEAddr(pte)
			}
		}
		if err := ctx.WritePTE(table, ptIndex(virt, 0), MakePTE(virt, flags)); err != nil {
			t.Fatalf("write leaf PTE: %v", err)
		}
	}
	return cr3, int((next - tableBase) / PageSize)
}

func TestTranslateIdentityMap(t *testing.T) {
	m := testMachine(t, 64, 64)
	cr3, _ := buildIdentityMap(t, m, 16*PageSize, 8, PTEPresent|PTEWrite|PTEUser)
	ctx := AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: cr3}
	for _, virt := range []uint64{0, PageSize + 5, 7*PageSize + 4095} {
		phys, err := ctx.Translate(virt, AccessRead)
		if err != nil {
			t.Fatalf("Translate(%#x): %v", virt, err)
		}
		if phys != virt {
			t.Fatalf("Translate(%#x) = %#x, want identity", virt, phys)
		}
	}
}

func TestTranslateFaults(t *testing.T) {
	m := testMachine(t, 64, 64)
	cr3, _ := buildIdentityMap(t, m, 16*PageSize, 4, PTEPresent|PTEUser) // read-only, user
	ctx := AccessContext{M: m, VMPL: VMPL0, CPL: CPL3, CR3: cr3}

	if _, err := ctx.Translate(100*PageSize, AccessRead); !IsPF(err) {
		t.Fatalf("unmapped: err = %v, want #PF", err)
	}
	if _, err := ctx.Translate(0, AccessWrite); !IsPF(err) {
		t.Fatalf("read-only write: err = %v, want #PF", err)
	}
	if _, err := ctx.Translate(1<<VirtBits, AccessRead); !IsPF(err) {
		t.Fatalf("non-canonical: err = %v, want #PF", err)
	}
	if m.Halted() != nil {
		t.Fatal("#PF must not halt the CVM (it is recoverable)")
	}

	sup := AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: cr3}
	if _, err := sup.Translate(0, AccessRead); err != nil {
		t.Fatalf("supervisor read: %v", err)
	}

	// Supervisor-only mapping is invisible at CPL3.
	cr3s, _ := buildIdentityMap(t, m, 32*PageSize, 4, PTEPresent|PTEWrite) // no PTEUser
	usr := AccessContext{M: m, VMPL: VMPL0, CPL: CPL3, CR3: cr3s}
	if _, err := usr.Translate(0, AccessRead); !IsPF(err) {
		t.Fatalf("user access to supervisor page: err = %v, want #PF", err)
	}
}

func TestNXBlocksExec(t *testing.T) {
	m := testMachine(t, 64, 64)
	cr3, _ := buildIdentityMap(t, m, 16*PageSize, 4, PTEPresent|PTEWrite|PTEUser|PTENX)
	ctx := AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: cr3}
	if err := ctx.FetchCheck(0); !IsPF(err) {
		t.Fatalf("exec from NX page: err = %v, want #PF", err)
	}
}

func TestFetchCheckHonoursRMPSupervisorExec(t *testing.T) {
	m := testMachine(t, 64, 64)
	cr3, _ := buildIdentityMap(t, m, 16*PageSize, 4, PTEPresent|PTEWrite|PTEUser)
	// VeilS-KCI style: strip supervisor-exec from page 1 at VMPL3.
	if err := m.RMPAdjust(VMPL0, PageSize, VMPL3, PermRW|PermUserExec); err != nil {
		t.Fatal(err)
	}
	// Grant VMPL3 full perms on the other data/table pages so the walk works.
	for pg := uint64(0); pg < 64; pg++ {
		if pg == 1 {
			continue
		}
		if err := m.RMPAdjust(VMPL0, pg*PageSize, VMPL3, PermAll); err != nil {
			t.Fatal(err)
		}
	}
	kctx := AccessContext{M: m, VMPL: VMPL3, CPL: CPL0, CR3: cr3}
	if err := kctx.FetchCheck(0); err != nil {
		t.Fatalf("fetch from allowed page: %v", err)
	}
	if err := kctx.FetchCheck(PageSize); !IsNPF(err) {
		t.Fatalf("supervisor fetch from stripped page: err = %v, want #NPF", err)
	}
}

func TestReadWriteVirtualCrossPage(t *testing.T) {
	m := testMachine(t, 64, 64)
	cr3, _ := buildIdentityMap(t, m, 16*PageSize, 8, PTEPresent|PTEWrite|PTEUser)
	ctx := AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: cr3}
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := ctx.Write(PageSize/2, data); err != nil {
		t.Fatalf("cross-page write: %v", err)
	}
	got := make([]byte, len(data))
	if err := ctx.Read(PageSize/2, got); err != nil {
		t.Fatalf("cross-page read: %v", err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], data[i])
		}
	}
}

func TestReadWriteU64(t *testing.T) {
	m := testMachine(t, 64, 64)
	cr3, _ := buildIdentityMap(t, m, 16*PageSize, 4, PTEPresent|PTEWrite|PTEUser)
	ctx := AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: cr3}
	const v = 0x1122334455667788
	if err := ctx.WriteU64(16, v); err != nil {
		t.Fatal(err)
	}
	got, err := ctx.ReadU64(16)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("ReadU64 = %#x, want %#x", got, v)
	}
}

func TestNullCR3Faults(t *testing.T) {
	m := testMachine(t, 4, 4)
	ctx := AccessContext{M: m, VMPL: VMPL0, CPL: CPL0, CR3: 0}
	if _, err := ctx.Translate(0, AccessRead); !IsGP(err) {
		t.Fatalf("null CR3: err = %v, want #GP", err)
	}
}

// Property: MakePTE/PTEAddr round-trip for any page-aligned address within
// the architectural mask, regardless of flag bits.
func TestPTEAddrRoundTrip(t *testing.T) {
	f := func(pfn uint32, flags uint16) bool {
		phys := (uint64(pfn) << PageShift) & PTEAddrMask
		pte := MakePTE(phys, uint64(flags)&(PTEPresent|PTEWrite|PTEUser)|PTENX)
		return PTEAddr(pte) == phys
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ptIndex always yields a value < 512 and reconstructing the
// virtual page number from the four indexes is the identity.
func TestPTIndexDecomposition(t *testing.T) {
	f := func(v uint64) bool {
		virt := v & ((1 << VirtBits) - 1) &^ (PageSize - 1)
		var rebuilt uint64
		for level := 0; level < PTLevels; level++ {
			idx := ptIndex(virt, level)
			if idx >= 1<<ptIndexBits {
				return false
			}
			rebuilt |= idx << (PageShift + ptIndexBits*level)
		}
		return rebuilt == virt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a guest access at any VMPL with any CPL to a page whose RMP
// permissions exclude the corresponding bit always produces #NPF (never
// silent success).
func TestRMPDenialIsTotal(t *testing.T) {
	f := func(vmplRaw, cplRaw, accRaw uint8) bool {
		vmpl := VMPL(vmplRaw % NumVMPLs)
		if vmpl == VMPL0 {
			vmpl = VMPL1 // VMPL0 can't be restricted
		}
		cpl := CPL0
		if cplRaw%2 == 1 {
			cpl = CPL3
		}
		acc := Access(accRaw % 3)
		m := NewMachine(Config{MemBytes: 2 * PageSize, VCPUs: 1})
		if err := m.HVAssignPage(0); err != nil {
			return false
		}
		if err := m.PValidate(VMPL0, 0, true); err != nil {
			return false
		}
		// Strip everything from this VMPL.
		if err := m.RMPAdjust(VMPL0, 0, vmpl, PermNone); err != nil {
			return false
		}
		var err error
		switch acc {
		case AccessRead:
			err = m.GuestReadPhys(vmpl, cpl, 0, make([]byte, 1))
		case AccessWrite:
			err = m.GuestWritePhys(vmpl, cpl, 0, []byte{1})
		case AccessExec:
			err = m.GuestExecCheckPhys(vmpl, cpl, 0)
		}
		return IsNPF(err) && m.Halted() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RMPADJUST never changes the permissions of a VMPL at or above
// the caller, for any caller/target/permission combination.
func TestRMPAdjustNeverEscalates(t *testing.T) {
	f := func(callerRaw, targetRaw, permRaw uint8) bool {
		caller := VMPL(callerRaw % NumVMPLs)
		target := VMPL(targetRaw % NumVMPLs)
		perm := Perm(permRaw) & PermAll
		m := NewMachine(Config{MemBytes: 2 * PageSize, VCPUs: 1})
		if err := m.HVAssignPage(0); err != nil {
			return false
		}
		if err := m.PValidate(VMPL0, 0, true); err != nil {
			return false
		}
		// Give every VMPL full permissions to isolate the privilege rule.
		for v := VMPL1; v < NumVMPLs; v++ {
			if err := m.RMPAdjust(VMPL0, 0, v, PermAll); err != nil {
				return false
			}
		}
		before, _ := m.RMPEntryAt(0)
		err := m.RMPAdjust(caller, 0, target, perm)
		after, _ := m.RMPEntryAt(0)
		if target <= caller {
			// Must be rejected and change nothing.
			return IsGP(err) && before == after
		}
		return err == nil && after.Perms[target] == perm && after.Perms[VMPL0] == PermAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Translate walks the page tables for virt and returns the physical address,
// enforcing PTE-level permissions for the context's ring. It does not
// perform the RMP check (that happens on the actual access) but it does
// produce the recoverable #PF faults the paging paths rely on.
func (a AccessContext) Translate(virt uint64, acc Access) (uint64, error) {
	phys, _, err := a.translate(virt, acc)
	return phys, err
}

package snp

import (
	"errors"
	"testing"

	"veil/internal/obs"
)

// nopContext is guest code that does nothing when entered.
var nopContext = ContextFunc(func(Reason) error { return nil })

func TestReasonStrings(t *testing.T) {
	if ReasonBoot.String() != "boot" || ReasonService.String() != "service" || ReasonInterrupt.String() != "interrupt" {
		t.Fatal("reason strings")
	}
}

// vmrunMachine is a two-VCPU machine with a VMSA on each VCPU (pages 1 and
// 2), each counting its entries, and page 3 validated but no VMSA.
func vmrunMachine(t *testing.T) (*Machine, *[2][]Reason) {
	t.Helper()
	m := NewMachine(Config{MemBytes: 4 * PageSize, VCPUs: 2})
	for pg := uint64(1); pg < 4; pg++ {
		if err := m.HVAssignPage(pg * PageSize); err != nil {
			t.Fatal(err)
		}
		if err := m.PValidate(VMPL0, pg*PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
	var runs [2][]Reason
	for v := range 2 {
		ctx := ContextFunc(func(r Reason) error { runs[v] = append(runs[v], r); return nil })
		if err := m.CreateVMSA(VMPL0, uint64(1+v)*PageSize, VMSA{VCPUID: v, VMPL: VMPL3}, ctx); err != nil {
			t.Fatal(err)
		}
	}
	return m, &runs
}

// vmrunDenials returns the pages named by the DeniedVMRUN events rec holds.
func vmrunDenials(rec *obs.Recorder) []uint64 {
	var pages []uint64
	for _, e := range rec.Events() {
		if e.Class == obs.ClassDenied && e.Arg1 == uint64(DeniedVMRUN) {
			pages = append(pages, e.Arg2)
		}
	}
	return pages
}

// TestVMRUNRunsOnlyAVMSAOfTheVCPU: VMRUN runs the code a VCPU's own VMSA
// holds, with the reason given, and refuses every other page (one that
// never held a VMSA, one out of range or unaligned, another VCPU's VMSA,
// a destroyed VMSA, a save area the RMP does not mark) with ErrVMRUN and
// one DeniedVMRUN event naming it, running nothing. CheckVMRUN gives the
// same verdicts without entering.
func TestVMRUNRunsOnlyAVMSAOfTheVCPU(t *testing.T) {
	m, runs := vmrunMachine(t)
	rec := obs.NewRecorder(64)
	m.SetRecorder(rec)
	if err := m.VMRUN(0, PageSize, ReasonDoorbell); err != nil {
		t.Fatal(err)
	}
	if err := m.VMRUN(1, 2*PageSize, ReasonBoot); err != nil {
		t.Fatal(err)
	}
	if runs[0][0] != ReasonDoorbell || runs[1][0] != ReasonBoot {
		t.Fatalf("entries ran with %v, want [doorbell] [boot]", *runs)
	}
	if err := m.DestroyVMSA(VMPL0, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		vcpu int
		phys uint64
	}{
		{"a page that never held a VMSA", 0, 3 * PageSize},
		{"a page past the end", 0, 4 * PageSize},
		{"a VMSA page plus an offset", 0, PageSize + 8},
		{"another VCPU's VMSA", 1, PageSize},
		{"a VCPU the machine does not have", 2, PageSize},
		{"a destroyed VMSA", 1, 2 * PageSize},
	} {
		before := len(vmrunDenials(rec))
		if err := m.CheckVMRUN(c.vcpu, c.phys); !errors.Is(err, ErrVMRUN) {
			t.Fatalf("CheckVMRUN on %s: %v, want ErrVMRUN", c.name, err)
		}
		if err := m.VMRUN(c.vcpu, c.phys, ReasonService); !errors.Is(err, ErrVMRUN) {
			t.Fatalf("VMRUN of %s: %v, want ErrVMRUN", c.name, err)
		}
		if got := vmrunDenials(rec)[before:]; len(got) != 2 || got[0] != c.phys || got[1] != c.phys {
			t.Fatalf("%s: denials %v, want one each naming %#x", c.name, got, c.phys)
		}
	}
	// A save area whose RMP entry no longer says VMSA is refused too: the
	// RMP, not the registry alone, decides.
	m.rmp[1].VMSA = false
	if err := m.VMRUN(0, PageSize, ReasonService); !errors.Is(err, ErrVMRUN) {
		t.Fatalf("VMRUN of a save area the RMP does not mark: %v, want ErrVMRUN", err)
	}
	m.rmp[1].VMSA = true
	if len(runs[0]) != 1 || len(runs[1]) != 1 {
		t.Fatalf("a refused VMRUN ran guest code: %v", *runs)
	}
	if m.Halted() != nil {
		t.Fatalf("a refusal halted the machine: %v", m.Halted())
	}
}

// TestCreateVMSARefusesOrphans: a save area must name a VCPU of the machine
// and hold guest code; a refused one sets no RMP bit.
func TestCreateVMSARefusesOrphans(t *testing.T) {
	m, _ := vmrunMachine(t)
	for _, c := range []struct {
		name  string
		state VMSA
		ctx   Context
	}{
		{"no guest code", VMSA{VCPUID: 0, VMPL: VMPL2}, nil},
		{"an unknown VCPU", VMSA{VCPUID: 2, VMPL: VMPL2}, nopContext},
		{"a negative VCPU", VMSA{VCPUID: -1, VMPL: VMPL2}, nopContext},
	} {
		if err := m.CreateVMSA(VMPL0, 3*PageSize, c.state, c.ctx); err == nil {
			t.Fatalf("CreateVMSA with %s accepted", c.name)
		}
		if e, _ := m.RMPEntryAt(3 * PageSize); e.VMSA {
			t.Fatalf("CreateVMSA with %s set the VMSA bit", c.name)
		}
	}
	if err := NewMachine(Config{MemBytes: PageSize}).HVCreateBootVMSA(0, VMSA{}, nil); err == nil {
		t.Fatal("a boot VMSA with no guest code accepted")
	}
}

// TestVMSARegistryAudit: the RMP consistency sweep holds the registry to
// the RMP, in both directions, and is silent on a healthy machine.
func TestVMSARegistryAudit(t *testing.T) {
	m, _ := vmrunMachine(t)
	if n, d := m.AuditRMPConsistency(0); n != 0 {
		t.Fatalf("healthy machine: %d violations %v", n, d)
	}
	// An RMP VMSA bit with no save area behind it.
	m.rmp[3].VMSA = true
	if n, _ := m.AuditRMPConsistency(0); n != 1 {
		t.Fatalf("a stray VMSA bit: %d violations, want 1", n)
	}
	m.rmp[3].VMSA = false
	// A save area whose page lost its VMSA bit.
	m.rmp[1].VMSA = false
	if n, _ := m.AuditRMPConsistency(0); n != 2 {
		t.Fatalf("an unmarked save area: %d violations, want 2 (the page, the count)", n)
	}
	m.rmp[1].VMSA = true
	if n, d := m.AuditRMPConsistency(0); n != 0 {
		t.Fatalf("restored machine: %d violations %v", n, d)
	}
}

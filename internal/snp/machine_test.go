package snp

import (
	"strings"
	"testing"
)

// testMachine returns a small machine with the first `assigned` pages
// donated and validated, with full VMPL0 permissions.
func testMachine(t *testing.T, pages, assigned int) *Machine {
	t.Helper()
	m := NewMachine(Config{MemBytes: uint64(pages) * PageSize, VCPUs: 1})
	for i := 0; i < assigned; i++ {
		phys := uint64(i) * PageSize
		if err := m.HVAssignPage(phys); err != nil {
			t.Fatalf("assign page %d: %v", i, err)
		}
		if err := m.PValidate(VMPL0, phys, true); err != nil {
			t.Fatalf("validate page %d: %v", i, err)
		}
	}
	return m
}

func TestNewMachineRoundsUpToPages(t *testing.T) {
	m := NewMachine(Config{MemBytes: PageSize + 1, VCPUs: 1})
	if got := m.NumPages(); got != 2 {
		t.Fatalf("NumPages = %d, want 2", got)
	}
	if m.cfg.MemBytes != 2*PageSize {
		t.Fatalf("MemBytes = %d, want %d", m.cfg.MemBytes, 2*PageSize)
	}
}

func TestDefaultConfigMatchesPaperTestbed(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MemBytes != 2<<30 || cfg.VCPUs != 4 {
		t.Fatalf("DefaultConfig = %+v, want 2 GB / 4 VCPUs", cfg)
	}
}

func TestSharedPageAccessibleToBothSides(t *testing.T) {
	m := testMachine(t, 4, 0) // all pages shared
	msg := []byte("bounce")
	if err := m.GuestWritePhys(VMPL3, CPL0, 0, msg); err != nil {
		t.Fatalf("guest write to shared page: %v", err)
	}
	got := make([]byte, len(msg))
	if err := m.HVReadPhys(0, got); err != nil {
		t.Fatalf("hypervisor read of shared page: %v", err)
	}
	if string(got) != "bounce" {
		t.Fatalf("hypervisor read %q, want %q", got, "bounce")
	}
	if err := m.HVWritePhys(0, []byte("reply")); err != nil {
		t.Fatalf("hypervisor write to shared page: %v", err)
	}
	if err := m.GuestReadPhys(VMPL3, CPL3, 0, got[:5]); err != nil {
		t.Fatalf("guest read back: %v", err)
	}
	if string(got[:5]) != "reply" {
		t.Fatalf("guest read %q, want %q", got[:5], "reply")
	}
}

func TestExecFromSharedPageFaults(t *testing.T) {
	m := testMachine(t, 2, 0)
	err := m.GuestExecCheckPhys(VMPL3, CPL0, 0)
	if !IsNPF(err) {
		t.Fatalf("exec from shared page: err = %v, want #NPF", err)
	}
	if m.Halted() == nil {
		t.Fatal("machine should halt on #NPF")
	}
}

func TestHypervisorBlockedFromAssignedPages(t *testing.T) {
	m := testMachine(t, 2, 2)
	secret := []byte("secret")
	if err := m.GuestWritePhys(VMPL0, CPL0, 0, secret); err != nil {
		t.Fatalf("guest write: %v", err)
	}
	buf := make([]byte, 6)
	if err := m.HVReadPhys(0, buf); err == nil {
		t.Fatal("hypervisor read of assigned page must fail")
	}
	if err := m.HVWritePhys(0, []byte("tamper")); err == nil {
		t.Fatal("hypervisor write to assigned page must fail")
	}
}

func TestUnvalidatedPageFaults(t *testing.T) {
	m := testMachine(t, 2, 0)
	if err := m.HVAssignPage(0); err != nil {
		t.Fatal(err)
	}
	err := m.GuestReadPhys(VMPL0, CPL0, 0, make([]byte, 1))
	if !IsNPF(err) {
		t.Fatalf("read of unvalidated page: err = %v, want #NPF", err)
	}
}

func TestPValidateRequiresVMPL0(t *testing.T) {
	m := testMachine(t, 2, 0)
	if err := m.HVAssignPage(0); err != nil {
		t.Fatal(err)
	}
	err := m.PValidate(VMPL3, 0, true)
	if !IsGP(err) {
		t.Fatalf("PVALIDATE at VMPL3: err = %v, want #GP", err)
	}
	if m.Halted() != nil {
		t.Fatal("#GP on PVALIDATE should not halt the CVM")
	}
	if err := m.PValidate(VMPL0, 0, true); err != nil {
		t.Fatalf("PVALIDATE at VMPL0: %v", err)
	}
	// Double validation is flagged (the delegation layer treats it as a
	// kernel bug / attack signal).
	if err := m.PValidate(VMPL0, 0, true); err == nil {
		t.Fatal("double PVALIDATE should error")
	}
}

func TestPValidateScrubsPage(t *testing.T) {
	m := testMachine(t, 2, 0)
	// Hypervisor plants data in the page before donating it.
	if err := m.HVWritePhys(0, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	if err := m.HVAssignPage(0); err != nil {
		t.Fatal(err)
	}
	if err := m.PValidate(VMPL0, 0, true); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if err := m.GuestReadPhys(VMPL0, CPL0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 {
		t.Fatalf("validated page not scrubbed: % x", buf)
	}
}

func TestRMPAdjustRestrictsLowerVMPL(t *testing.T) {
	m := testMachine(t, 2, 2)
	// VMPL0 grants VMPL3 read-only.
	if err := m.RMPAdjust(VMPL0, 0, VMPL3, PermRead); err != nil {
		t.Fatalf("RMPADJUST: %v", err)
	}
	if err := m.GuestReadPhys(VMPL3, CPL0, 0, make([]byte, 8)); err != nil {
		t.Fatalf("VMPL3 read after grant: %v", err)
	}
	err := m.GuestWritePhys(VMPL3, CPL0, 0, []byte("x"))
	if !IsNPF(err) {
		t.Fatalf("VMPL3 write: err = %v, want #NPF", err)
	}
	if m.Halted() == nil {
		t.Fatal("write violation must halt the CVM")
	}
}

func TestRMPAdjustCannotTargetSelfOrHigher(t *testing.T) {
	m := testMachine(t, 2, 2)
	for _, target := range []VMPL{VMPL0, VMPL1} {
		err := m.RMPAdjust(VMPL1, 0, target, PermAll)
		if !IsGP(err) {
			t.Fatalf("RMPADJUST VMPL1→%s: err = %v, want #GP", target, err)
		}
	}
}

func TestRMPAdjustByRestrictedCallerHalts(t *testing.T) {
	m := testMachine(t, 2, 2)
	// VeilMon-style restriction: VMPL3 gets no access to page 0.
	if err := m.RMPAdjust(VMPL0, 0, VMPL3, PermNone); err != nil {
		t.Fatal(err)
	}
	// The OS tries to lift the restriction itself (§5.1): #NPF + halt.
	err := m.RMPAdjust(VMPL3, 0, VMPL3+0, PermAll) // target must be < caller anyway
	if !IsGP(err) && !IsNPF(err) {
		t.Fatalf("OS RMPADJUST: err = %v, want fault", err)
	}
}

func TestRMPAdjustCannotGrantBeyondOwn(t *testing.T) {
	m := testMachine(t, 2, 2)
	// VMPL0 grants VMPL1 read/write only (no exec).
	if err := m.RMPAdjust(VMPL0, 0, VMPL1, PermRW); err != nil {
		t.Fatal(err)
	}
	// VMPL1 then tries to grant VMPL2 exec, which it does not hold.
	err := m.RMPAdjust(VMPL1, 0, VMPL2, PermRX)
	if !IsGP(err) {
		t.Fatalf("grant beyond own perms: err = %v, want #GP", err)
	}
	// Granting within its own perms is fine.
	if err := m.RMPAdjust(VMPL1, 0, VMPL2, PermRead); err != nil {
		t.Fatalf("grant within own perms: %v", err)
	}
}

func TestHaltIsSticky(t *testing.T) {
	m := testMachine(t, 2, 2)
	if err := m.RMPAdjust(VMPL0, 0, VMPL3, PermNone); err != nil {
		t.Fatal(err)
	}
	if err := m.GuestReadPhys(VMPL3, CPL0, 0, make([]byte, 1)); !IsNPF(err) {
		t.Fatalf("want #NPF, got %v", err)
	}
	// Every subsequent operation reports the halt.
	if err := m.GuestReadPhys(VMPL0, CPL0, PageSize, make([]byte, 1)); err != ErrHalted {
		t.Fatalf("post-halt read: err = %v, want ErrHalted", err)
	}
	if err := m.RMPAdjust(VMPL0, 0, VMPL1, PermAll); err != ErrHalted {
		t.Fatalf("post-halt RMPADJUST: err = %v, want ErrHalted", err)
	}
}

func TestVMSACreationRules(t *testing.T) {
	m := testMachine(t, 4, 4)
	state := VMSA{VCPUID: 0, VMPL: VMPL3, CPL: CPL0, RIP: 0x1000}
	// Only VMPL0 can create VMSAs (Table 1: "Create VCPU at Dom-MON").
	if err := m.CreateVMSA(VMPL3, PageSize, state, nopContext); !IsGP(err) {
		t.Fatalf("CreateVMSA at VMPL3: err = %v, want #GP", err)
	}
	if err := m.CreateVMSA(VMPL0, PageSize, state, nopContext); err != nil {
		t.Fatalf("CreateVMSA at VMPL0: %v", err)
	}
	// The VMSA page is now inaccessible to everyone via normal accesses.
	for _, v := range []VMPL{VMPL0, VMPL3} {
		if err := m.GuestReadPhys(v, CPL0, PageSize, make([]byte, 1)); !IsNPF(err) {
			t.Fatalf("VMSA page read at %s: err = %v, want #NPF", v, err)
		}
		m.halted = nil // reset for next probe
	}
	got, err := m.VMSAAt(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got.VMPL != VMPL3 || got.RIP != 0x1000 {
		t.Fatalf("VMSA content = %+v", got)
	}
}

func TestVMSAUpdateRequiresVMPL0(t *testing.T) {
	m := testMachine(t, 4, 4)
	if err := m.CreateVMSA(VMPL0, PageSize, VMSA{VCPUID: 0, VMPL: VMPL2}, nopContext); err != nil {
		t.Fatal(err)
	}
	err := m.UpdateVMSA(VMPL3, PageSize, func(v *VMSA) { v.RIP = 0xdead })
	if !IsGP(err) {
		t.Fatalf("UpdateVMSA at VMPL3: err = %v, want #GP", err)
	}
	if err := m.UpdateVMSA(VMPL0, PageSize, func(v *VMSA) { v.RIP = 0x2000 }); err != nil {
		t.Fatal(err)
	}
	v, _ := m.VMSAAt(PageSize)
	if v.RIP != 0x2000 {
		t.Fatalf("RIP = %#x, want 0x2000", v.RIP)
	}
}

func TestBootVMSAAlwaysVMPL0(t *testing.T) {
	m := NewMachine(Config{MemBytes: 4 * PageSize, VCPUs: 1})
	if err := m.HVCreateBootVMSA(0, VMSA{VMPL: VMPL3}, nopContext); err == nil {
		t.Fatal("boot VMSA at VMPL3 must be rejected")
	}
	if err := m.HVCreateBootVMSA(0, VMSA{VMPL: VMPL0, VCPUID: 0}, nopContext); err != nil {
		t.Fatal(err)
	}
	v, err := m.VMSAAt(0)
	if err != nil || v.VMPL != VMPL0 {
		t.Fatalf("boot VMSA = %+v, err = %v", v, err)
	}
}

func TestGHCBRoundTrip(t *testing.T) {
	m := testMachine(t, 4, 0) // shared pages
	in := &GHCB{ExitCode: 7, ExitInfo1: 1, ExitInfo2: 2, SwScratch: 0xfeed}
	copy(in.Payload[:], "hello ghcb")
	if err := m.GuestWriteGHCB(VMPL3, CPL0, 0, in); err != nil {
		t.Fatal(err)
	}
	var out GHCB
	if err := m.HVReadGHCB(0, &out); err != nil {
		t.Fatal(err)
	}
	if out.ExitCode != 7 || out.SwScratch != 0xfeed || string(out.Payload[:10]) != "hello ghcb" {
		t.Fatalf("GHCB mismatch: %+v", out)
	}
	// Hypervisor reply path.
	out.ExitInfo1 = 99
	if err := m.HVWriteGHCB(0, &out); err != nil {
		t.Fatal(err)
	}
	var back GHCB
	if err := m.GuestReadGHCB(VMPL3, CPL3, 0, &back); err != nil {
		t.Fatal(err)
	}
	if back.ExitInfo1 != 99 {
		t.Fatalf("ExitInfo1 = %d, want 99", back.ExitInfo1)
	}
}

func TestGHCBOnPrivatePageInvisibleToHV(t *testing.T) {
	m := testMachine(t, 2, 2)
	in := &GHCB{ExitCode: 1}
	if err := m.GuestWriteGHCB(VMPL0, CPL0, 0, in); err != nil {
		t.Fatalf("guest write GHCB on own page: %v", err)
	}
	var out GHCB
	if err := m.HVReadGHCB(0, &out); err == nil {
		t.Fatal("hypervisor must not read a private-page GHCB")
	}
}

func TestWriteGHCBMSRRequiresCPL0(t *testing.T) {
	m := testMachine(t, 2, 0)
	if err := m.WriteGHCBMSR(0, CPL3, 0); !IsGP(err) {
		t.Fatalf("wrmsr at CPL3: err = %v, want #GP", err)
	}
	if err := m.WriteGHCBMSR(0, CPL0, PageSize); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.ReadGHCBMSR(0); !ok || got != PageSize {
		t.Fatalf("ReadGHCBMSR = %#x,%v", got, ok)
	}
}

func TestGHCBAccessorsRefuseUnaligned(t *testing.T) {
	m := testMachine(t, 2, 0) // shared pages: only the alignment can fail
	const phys = 64
	var g GHCB
	if err := m.GuestWriteGHCB(VMPL0, CPL0, phys, &g); err == nil {
		t.Fatal("GuestWriteGHCB accepted an unaligned GHCB")
	}
	if err := m.GuestReadGHCB(VMPL0, CPL0, phys, &g); err == nil {
		t.Fatal("GuestReadGHCB accepted an unaligned GHCB")
	}
	if err := m.HVReadGHCB(phys, &g); err == nil {
		t.Fatal("HVReadGHCB accepted an unaligned GHCB")
	}
	if err := m.HVWriteGHCB(phys, &g); err == nil {
		t.Fatal("HVWriteGHCB accepted an unaligned GHCB")
	}
	if m.Halted() != nil {
		t.Fatalf("refusal halted the machine: %v", m.Halted())
	}
}

func TestWriteGHCBMSRRejectsUnaligned(t *testing.T) {
	m := testMachine(t, 2, 0)
	if err := m.WriteGHCBMSR(0, CPL0, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteGHCBMSR(0, CPL0, PageSize+8); !IsGP(err) {
		t.Fatalf("unaligned wrmsr: err = %v, want #GP", err)
	}
	if got, _ := m.ReadGHCBMSR(0); got != PageSize {
		t.Fatalf("MSR = %#x after refused write, want %#x", got, PageSize)
	}
}

func TestFaultErrorStrings(t *testing.T) {
	f := &Fault{Kind: FaultNPF, VMPL: VMPL3, CPL: CPL0, Access: AccessWrite, Why: "test"}
	if !strings.Contains(f.Error(), "#NPF") || !strings.Contains(f.Error(), "VMPL3") {
		t.Fatalf("fault string: %s", f.Error())
	}
	if FaultPF.String() != "#PF" || FaultGP.String() != "#GP" {
		t.Fatal("fault kind strings")
	}
}

func TestPermString(t *testing.T) {
	cases := map[Perm]string{
		PermNone:                       "----",
		PermRead:                       "r---",
		PermRW:                         "rw--",
		PermAll:                        "rwus",
		PermRead | PermUserExec:        "r-u-",
		PermWrite | PermSupervisorExec: "-w-s",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Perm(%08b).String() = %q, want %q", uint8(p), got, want)
		}
	}
}

func TestCrossPagePhysAccessRejected(t *testing.T) {
	m := testMachine(t, 2, 2)
	err := m.GuestReadPhys(VMPL0, CPL0, PageSize-4, make([]byte, 8))
	if err == nil {
		t.Fatal("cross-page physical access must be rejected")
	}
}

func TestClockAttribution(t *testing.T) {
	m := testMachine(t, 2, 2)
	before := m.Clock().Snapshot()
	if err := m.RMPAdjust(VMPL0, 0, VMPL3, PermRead); err != nil {
		t.Fatal(err)
	}
	if got := m.Clock().SinceOf(before, CostRMPADJUST); got != CyclesRMPADJUST {
		t.Fatalf("RMPADJUST cycles = %d, want %d", got, CyclesRMPADJUST)
	}
	if m.Clock().Since(before) != CyclesRMPADJUST {
		t.Fatal("total cycles should match attributed cycles")
	}
}

func TestClockSeconds(t *testing.T) {
	var c Clock
	c.Charge(CostCompute, SimClockHz)
	if s := c.Seconds(); s != 1.0 {
		t.Fatalf("Seconds = %v, want 1.0", s)
	}
}

func TestCostKindStrings(t *testing.T) {
	if CostVMGEXIT.String() != "VMGEXIT" || CostPageHash.String() != "page-hash" {
		t.Fatal("cost kind names")
	}
}

func TestDomainSwitchCostSplit(t *testing.T) {
	if CyclesVMGEXITSave+CyclesVMENTERRestore != CyclesDomainSwitch {
		t.Fatal("switch halves must sum to the measured 7135 cycles")
	}
}

// HVReadPhys models a hypervisor (or device) read. SEV-SNP forbids outside
// software from reading guest-assigned pages; only shared pages succeed.
func (m *Machine) HVReadPhys(phys uint64, buf []byte) error {
	src, err := m.hostAccessPhys(phys, len(buf), AccessRead)
	if err != nil {
		return err
	}
	copy(buf, src)
	return nil
}

// UpdateVMSA mutates a saved instance on behalf of VMPL0 software; lower
// VMPLs take a #GP.
func (m *Machine) UpdateVMSA(callerVMPL VMPL, phys uint64, mutate func(*VMSA)) error {
	if err := m.checkRunning(); err != nil {
		return err
	}
	if callerVMPL != VMPL0 {
		f := &Fault{Kind: FaultGP, VMPL: callerVMPL, Phys: phys, Why: "VMSA update requires VMPL0"}
		m.ObserveFault(f)
		return f
	}
	v, err := m.VMSAAt(phys)
	if err != nil {
		return err
	}
	mutate(v)
	return nil
}

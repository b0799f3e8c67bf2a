package hv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"veil/internal/attest"
	"veil/internal/obs"
	"veil/internal/snp"
)

type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

// Fixed test layout (page numbers).
const (
	pgBootVMSA = 0 // boot (VMPL0) VMSA
	pgMonGHCB  = 1 // shared GHCB for the monitor context
	pgOSVMSA   = 2 // OS (VMPL3) replica VMSA
	pgOSGHCB   = 3 // shared GHCB for the OS context
	pgScratch  = 4 // guest-private scratch page
	pgDonate   = 6 // page the host donates during the test
	testPages  = 16
	tagMon     = DomainTag(100)
	tagOS      = DomainTag(103)
)

type harness struct {
	m  *snp.Machine
	hv *Hypervisor
	// recorded invocations
	bootRan  bool
	monCalls []snp.Reason
	osCalls  []snp.Reason
	// mon and os are what the monitor's (after boot) and the OS replica's
	// VMSAs run; by default they record the entry. A test that needs
	// either context to do something else replaces it.
	mon, os func(snp.Reason) error
}

// newHarness launches a minimal "Veil-shaped" guest: a VMPL0 boot context
// (standing in for VeilMon) that creates a VMPL3 OS replica and registers
// both with the hypervisor.
func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{}
	// Two VCPUs: the AP bring-up tests start VCPU 1.
	h.m = snp.NewMachine(snp.Config{MemBytes: testPages * snp.PageSize, VCPUs: 2})
	psp, err := attest.NewPSP(detRand{r: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	h.hv = New(h.m, psp)

	h.mon = func(r snp.Reason) error { h.monCalls = append(h.monCalls, r); return nil }
	h.os = func(r snp.Reason) error { h.osCalls = append(h.osCalls, r); return nil }
	monCtx := snp.ContextFunc(func(r snp.Reason) error {
		if r == snp.ReasonBoot {
			h.bootRan = true
			return h.bootMonitor(t)
		}
		return h.mon(r)
	})
	image := []attest.Region{{Phys: pgScratch * snp.PageSize, Data: []byte("veilmon image")}}
	boot := snp.VMSA{VCPUID: 0, VMPL: snp.VMPL0, CPL: snp.CPL0, RIP: 0x100}
	if err := h.hv.Launch(image, pgBootVMSA*snp.PageSize, boot, tagMon, monCtx); err != nil {
		t.Fatalf("launch: %v", err)
	}
	return h
}

// bootMonitor is the boot context body: set up GHCB, create + register the
// OS replica VMSA. It runs "inside" the guest at VMPL0/CPL0.
func (h *harness) bootMonitor(t *testing.T) error {
	m, hv := h.m, h.hv
	// GHCB MSR for VCPU 0 points at the monitor's shared GHCB page.
	if err := m.WriteGHCBMSR(0, snp.CPL0, pgMonGHCB*snp.PageSize); err != nil {
		return err
	}
	// Ask the host to assign the OS VMSA page, then validate it.
	g := &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: pgOSVMSA * snp.PageSize, ExitInfo2: 1<<1 | 1}
	if err := hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err != nil {
		return err
	}
	if g.SwScratch != 0 {
		t.Fatalf("page state change failed for %d pages", g.SwScratch)
	}
	if err := m.PValidate(snp.VMPL0, pgOSVMSA*snp.PageSize, true); err != nil {
		return err
	}
	// Create the OS replica at VMPL3, holding the OS context.
	osVMSA := snp.VMSA{VCPUID: 0, VMPL: snp.VMPL3, CPL: snp.CPL0, RIP: 0x200}
	osCtx := snp.ContextFunc(func(r snp.Reason) error { return h.os(r) })
	if err := m.CreateVMSA(snp.VMPL0, pgOSVMSA*snp.PageSize, osVMSA, osCtx); err != nil {
		return err
	}
	g = &snp.GHCB{ExitCode: ExitRegisterVMSA, ExitInfo1: pgOSVMSA * snp.PageSize, ExitInfo2: uint64(tagOS)}
	return hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g)
}

func TestLaunchRunsBootAndMeasures(t *testing.T) {
	h := newHarness(t)
	if !h.bootRan {
		t.Fatal("boot context did not run")
	}
	want := attest.MeasureRegions([]attest.Region{{Phys: pgScratch * snp.PageSize, Data: []byte("veilmon image")}})
	if h.hv.measurement != want {
		t.Fatal("launch measurement mismatch with attest.MeasureRegions")
	}
	// The measured image content is in guest memory.
	buf := make([]byte, 7)
	if err := h.m.GuestReadPhys(snp.VMPL0, snp.CPL0, pgScratch*snp.PageSize, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "veilmon" {
		t.Fatalf("image content %q", buf)
	}
}

func TestDoubleLaunchRejected(t *testing.T) {
	h := newHarness(t)
	err := h.hv.Launch(nil, pgScratch*snp.PageSize, snp.VMSA{}, tagMon, snp.ContextFunc(func(snp.Reason) error { return nil }))
	if err == nil {
		t.Fatal("second launch accepted")
	}
}

func TestDomainSwitchRoundTripCostAndTrace(t *testing.T) {
	h := newHarness(t)
	clk := h.m.Clock().Snapshot()
	tr := h.m.Trace().Snapshot()

	g := &snp.GHCB{ExitCode: ExitDomainSwitch, ExitInfo1: uint64(tagOS)}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err != nil {
		t.Fatal(err)
	}
	if len(h.osCalls) != 1 || h.osCalls[0] != snp.ReasonService {
		t.Fatalf("OS context calls: %v", h.osCalls)
	}
	d := h.m.Trace().Since(tr)
	if d.DomainSwitches != 2 {
		t.Fatalf("DomainSwitches = %d, want 2 (there and back)", d.DomainSwitches)
	}
	if d.VMGExits != 2 || d.VMEnters != 2 {
		t.Fatalf("exits/enters = %d/%d, want 2/2", d.VMGExits, d.VMEnters)
	}
	gotCycles := h.m.Clock().Since(clk)
	if gotCycles != 2*snp.CyclesDomainSwitch {
		t.Fatalf("round trip cost = %d cycles, want %d", gotCycles, 2*snp.CyclesDomainSwitch)
	}
}

func TestSwitchDuringSwitchNests(t *testing.T) {
	h := newHarness(t)
	// The OS context, when invoked, switches back into the monitor (nested
	// service request), like the kernel asking VeilMon for a PVALIDATE
	// while handling something else.
	h.os = func(r snp.Reason) error {
		h.osCalls = append(h.osCalls, r)
		if err := h.m.WriteGHCBMSR(0, snp.CPL0, pgOSGHCB*snp.PageSize); err != nil {
			return err
		}
		g := &snp.GHCB{ExitCode: ExitDomainSwitch, ExitInfo1: uint64(tagMon)}
		return h.hv.GuestCall(0, snp.VMPL3, snp.CPL0, pgOSGHCB*snp.PageSize, g)
	}

	g := &snp.GHCB{ExitCode: ExitDomainSwitch, ExitInfo1: uint64(tagOS)}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err != nil {
		t.Fatal(err)
	}
	if len(h.monCalls) != 1 || h.monCalls[0] != snp.ReasonService {
		t.Fatalf("nested monitor calls: %v", h.monCalls)
	}
	cur, _ := h.hv.CurrentVMSA(0)
	if cur != pgBootVMSA*snp.PageSize {
		t.Fatalf("current VMSA after unwinding = %#x", cur)
	}
}

func TestGHCBPolicyBlocksSwitch(t *testing.T) {
	h := newHarness(t)
	// Policy: the monitor GHCB may only reach tagMon (not tagOS).
	h.hv.SetGHCBPolicy(pgMonGHCB*snp.PageSize, tagMon)
	g := &snp.GHCB{ExitCode: ExitDomainSwitch, ExitInfo1: uint64(tagOS)}
	err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g)
	if !errors.Is(err, ErrPolicy) {
		t.Fatalf("err = %v, want ErrPolicy", err)
	}
	if len(h.osCalls) != 0 {
		t.Fatal("switch happened despite policy")
	}
}

func TestGHCBOnPrivatePageFailsExit(t *testing.T) {
	h := newHarness(t)
	// Point the MSR at a guest-private page; the host cannot read it.
	if err := h.m.WriteGHCBMSR(0, snp.CPL0, pgScratch*snp.PageSize); err != nil {
		t.Fatal(err)
	}
	err := h.hv.VMGEXIT(0)
	if !errors.Is(err, ErrNoGHCB) {
		t.Fatalf("err = %v, want ErrNoGHCB", err)
	}
}

func TestUnknownDomainTag(t *testing.T) {
	h := newHarness(t)
	g := &snp.GHCB{ExitCode: ExitDomainSwitch, ExitInfo1: 999}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err == nil {
		t.Fatal("switch to unknown tag accepted")
	}
}

// TestRegisterVMSARequiresBoundContext: the host can only name a page that
// holds a VMSA, and a VMSA cannot exist without the guest code it runs, so
// every registered page runs something the guest put there.
func TestRegisterVMSARequiresBoundContext(t *testing.T) {
	h := newHarness(t)
	phys := uint64(pgDonate) * snp.PageSize
	gs := &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: phys, ExitInfo2: 1<<1 | 1}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, gs); err != nil {
		t.Fatal(err)
	}
	if err := h.m.PValidate(snp.VMPL0, phys, true); err != nil {
		t.Fatal(err)
	}
	if err := h.m.CreateVMSA(snp.VMPL0, phys, snp.VMSA{VCPUID: 0, VMPL: snp.VMPL2}, nil); err == nil {
		t.Fatal("a VMSA with no guest context was created")
	}
	g := &snp.GHCB{ExitCode: ExitRegisterVMSA, ExitInfo1: phys, ExitInfo2: 55}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err == nil {
		t.Fatal("register of a page with no VMSA accepted")
	}
}

func TestStartVCPURunsBootReason(t *testing.T) {
	h := newHarness(t)
	phys := uint64(pgDonate) * snp.PageSize
	gs := &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: phys, ExitInfo2: 1<<1 | 1}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, gs); err != nil {
		t.Fatal(err)
	}
	if err := h.m.PValidate(snp.VMPL0, phys, true); err != nil {
		t.Fatal(err)
	}
	var apBooted bool
	ap := snp.ContextFunc(func(r snp.Reason) error {
		apBooted = r == snp.ReasonBoot
		return nil
	})
	if err := h.m.CreateVMSA(snp.VMPL0, phys, snp.VMSA{VCPUID: 1, VMPL: snp.VMPL3}, ap); err != nil {
		t.Fatal(err)
	}
	g := &snp.GHCB{ExitCode: ExitStartVCPU, ExitInfo1: phys}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err != nil {
		t.Fatal(err)
	}
	if !apBooted {
		t.Fatal("AP boot context did not run with ReasonBoot")
	}
	if _, ok := h.hv.CurrentVMSA(1); !ok {
		t.Fatal("VCPU 1 not tracked after start")
	}
}

func TestPageStateReportsFailures(t *testing.T) {
	h := newHarness(t)
	// pgScratch is already assigned (launch image): assigning again fails.
	g := &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: pgScratch * snp.PageSize, ExitInfo2: 1<<1 | 1}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err != nil {
		t.Fatal(err)
	}
	if g.SwScratch != 1 {
		t.Fatalf("failed count = %d, want 1", g.SwScratch)
	}
}

func TestGuestRequestBindsHardwareVMPL(t *testing.T) {
	h := newHarness(t)
	psp := h.hv.psp.(*attest.PSP)

	reportData := []byte("monitor dh key")
	g := &snp.GHCB{ExitCode: ExitGuestRequest, SwScratch: uint64(len(reportData))}
	copy(g.Payload[:], reportData)
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err != nil {
		t.Fatal(err)
	}
	rep, err := attest.VerifyReport(psp.PublicKey(), g.Payload[:g.SwScratch])
	if err != nil {
		t.Fatal(err)
	}
	if rep.VMPL != snp.VMPL0 {
		t.Fatalf("report VMPL = %v, want VMPL0 (from hardware VMSA)", rep.VMPL)
	}
	if rep.Measurement != h.hv.measurement {
		t.Fatal("report measurement mismatch")
	}
	if string(rep.ReportData[:len(reportData)]) != string(reportData) {
		t.Fatal("report data mismatch")
	}
}

func TestInterruptRelayToUntrusted(t *testing.T) {
	h := newHarness(t)
	h.hv.SetInterruptRelay(RelayToUntrusted, tagOS)
	if err := h.hv.InjectInterrupt(0); err != nil {
		t.Fatal(err)
	}
	if len(h.osCalls) != 1 || h.osCalls[0] != snp.ReasonInterrupt {
		t.Fatalf("OS calls after interrupt: %v", h.osCalls)
	}
	// The interrupted (monitor) instance is current again afterwards.
	cur, _ := h.hv.CurrentVMSA(0)
	if cur != pgBootVMSA*snp.PageSize {
		t.Fatalf("current VMSA = %#x after interrupt", cur)
	}
}

func TestInterruptRefuseRelayHitsCurrentDomain(t *testing.T) {
	h := newHarness(t)
	h.hv.SetInterruptRelay(RefuseRelay, tagOS)
	// The current domain is the monitor; its context sees the interrupt.
	if err := h.hv.InjectInterrupt(0); err != nil {
		t.Fatal(err)
	}
	if len(h.monCalls) != 1 || h.monCalls[0] != snp.ReasonInterrupt {
		t.Fatalf("monitor calls: %v", h.monCalls)
	}
	if len(h.osCalls) != 0 {
		t.Fatal("OS should not have been resumed in RefuseRelay mode")
	}
}

func TestHostileVMSATamperBlocked(t *testing.T) {
	h := newHarness(t)
	if err := h.hv.AttemptVMSATamper(pgOSVMSA * snp.PageSize); err == nil {
		t.Fatal("hypervisor tampered with a VMSA")
	}
}

func TestVMCallCost(t *testing.T) {
	h := newHarness(t)
	clk := h.m.Clock().Snapshot()
	h.hv.VMCall(0)
	if got := h.m.Clock().Since(clk); got != snp.CyclesVMCALL {
		t.Fatalf("VMCALL cost = %d, want %d", got, snp.CyclesVMCALL)
	}
	if h.m.Trace().VMCalls != 1 {
		t.Fatal("VMCalls not counted")
	}
}

func TestVMGEXITAfterHaltReturnsErrHalted(t *testing.T) {
	h := newHarness(t)
	// Halt the CVM via an RMP violation.
	if err := h.m.RMPAdjust(snp.VMPL0, pgScratch*snp.PageSize, snp.VMPL3, snp.PermNone); err != nil {
		t.Fatal(err)
	}
	if err := h.m.GuestWritePhys(snp.VMPL3, snp.CPL0, pgScratch*snp.PageSize, []byte{1}); !snp.IsNPF(err) {
		t.Fatalf("expected #NPF, got %v", err)
	}
	if err := h.hv.VMGEXIT(0); !errors.Is(err, snp.ErrHalted) {
		t.Fatalf("VMGEXIT after halt: %v", err)
	}
	if err := h.hv.InjectInterrupt(0); !errors.Is(err, snp.ErrHalted) {
		t.Fatalf("interrupt after halt: %v", err)
	}
}

func TestVMGEXITZeroAlloc(t *testing.T) {
	h := newHarness(t)
	// The OS does nothing when entered, so the round trip itself (exit,
	// VMRUN's check, entry and back) is all that runs.
	h.os = func(snp.Reason) error { return nil }
	var sw snp.GHCB
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		sw = snp.GHCB{ExitCode: ExitDomainSwitch, ExitInfo1: uint64(tagOS)}
		err = h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, &sw)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("domain-switch GuestCall allocates %.1f times, want 0", allocs)
	}
}

// TestGHCBExitPageBytes pins what the exits put on the shared page: the
// header, exactly the payload bytes SwScratch names, and nothing else. A
// guest request leaves its report (n bytes) and zeros past it; a
// page-state reply with k failures then writes its header and k zero
// bytes over the start of that report, and the rest of the page is left
// as it was. Whatever GHCB the host decodes into, bytes from an earlier
// exit must never reach the page.
func TestGHCBExitPageBytes(t *testing.T) {
	h := newHarness(t)
	ghcb := uint64(pgMonGHCB * snp.PageSize)
	raw := func() []byte {
		t.Helper()
		buf := make([]byte, snp.PageSize)
		if err := h.m.GuestReadPhys(snp.VMPL0, snp.CPL0, ghcb, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	checkHeader := func(page []byte, code, info1, info2, scratch uint64) {
		t.Helper()
		for i, want := range []uint64{code, info1, info2, scratch} {
			if got := binary.LittleEndian.Uint64(page[8*i:]); got != want {
				t.Fatalf("header word %d = %#x, want %#x", i, got, want)
			}
		}
	}
	const hdr = 32

	g := &snp.GHCB{ExitCode: ExitGuestRequest, SwScratch: 16}
	copy(g.Payload[:], "report data 0123")
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, ghcb, g); err != nil {
		t.Fatal(err)
	}
	n := int(g.SwScratch)
	report := append([]byte(nil), g.Payload[:n]...)
	page := raw()
	checkHeader(page, ExitGuestRequest, 0, 0, uint64(n))
	if !bytes.Equal(page[hdr:hdr+n], report) {
		t.Fatal("guest request reply: payload on the page differs from the report")
	}
	if !allZero(page[hdr+n:]) {
		t.Fatal("guest request reply: bytes past the report are not zero")
	}

	// Assign the free pages after pgDonate once (no failures), then again:
	// every page fails, and the failure count lands in SwScratch.
	first, count := uint64(pgDonate*snp.PageSize), uint64(testPages-pgDonate)
	for _, wantFailed := range []uint64{0, count} {
		g := &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: first, ExitInfo2: count<<1 | 1}
		if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, ghcb, g); err != nil {
			t.Fatal(err)
		}
		if g.SwScratch != wantFailed {
			t.Fatalf("page-state reply: %d failures, want %d", g.SwScratch, wantFailed)
		}
	}
	k := int(count)
	if k >= n {
		t.Fatalf("test needs fewer failures (%d) than report bytes (%d)", k, n)
	}
	page = raw()
	checkHeader(page, ExitPageState, first, count<<1|1, count)
	if !allZero(page[hdr : hdr+k]) {
		t.Fatalf("page-state reply wrote % x, want %d zero bytes", page[hdr:hdr+k], k)
	}
	if !bytes.Equal(page[hdr+k:hdr+n], report[k:]) {
		t.Fatal("page-state reply touched payload bytes past its failure count")
	}
	if !allZero(page[hdr+n:]) {
		t.Fatal("page-state reply: bytes past the old report are not zero")
	}
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// switchLabels runs one domain switch from VMPL0 to tag through the GHCB
// at ghcb and returns the from/to VMPL labels of its two switch spans, out and
// back, and the refusals it emitted, each as its DeniedReason and context.
func (h *harness) switchLabels(t *testing.T, ghcb uint64, tag DomainTag) (spans, denied [][2]uint64, err error) {
	t.Helper()
	rec := obs.NewRecorder(64)
	h.m.SetRecorder(rec)
	defer h.m.SetRecorder(nil)
	if err := h.m.WriteGHCBMSR(0, snp.CPL0, ghcb); err != nil {
		t.Fatal(err)
	}
	g := &snp.GHCB{ExitCode: ExitDomainSwitch, ExitInfo1: uint64(tag)}
	err = h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, ghcb, g)
	for _, e := range rec.Events() {
		switch {
		case e.Class == obs.ClassDomainSwitch:
			spans = append(spans, [2]uint64{e.Arg1, e.Arg2})
		case e.Class == obs.ClassDenied:
			denied = append(denied, [2]uint64{e.Arg1, e.Arg2})
		}
	}
	return spans, denied, err
}

// TestSwitchLabelsAndGHCBPolicy pins what a domain switch reads on its
// way: the from/to VMPL labels of its spans, taken from the VMSA pages'
// RMP entries, for the boot VMSA, an OS replica and an enclave VMSA, each
// the label the save area's own VMSA.VMPL gives; that a switch to a
// destroyed VMSA's tag is refused by VMRUN with one DeniedVMRUN event
// naming the page, its spans labelled VMPL0 (a page with no VMSA), and runs
// nothing; and the GHCB policy, which refuses a tag outside it with
// ErrPolicy and one DeniedPolicy event naming the tag, and leaves a GHCB
// with no policy unrestricted.
func TestSwitchLabelsAndGHCBPolicy(t *testing.T) {
	const tagEnc, tagGone = DomainTag(102), DomainTag(104)
	h := newHarness(t)
	mon, osg := uint64(pgMonGHCB*snp.PageSize), uint64(pgOSGHCB*snp.PageSize)
	// An enclave VMSA at VMPL2, and one that is destroyed after it is
	// registered.
	encCalls, goneCalls := 0, 0
	for _, v := range []struct {
		pg    uint64
		tag   DomainTag
		calls *int
	}{{pgDonate, tagEnc, &encCalls}, {pgDonate + 1, tagGone, &goneCalls}} {
		phys := v.pg * snp.PageSize
		gs := &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: phys, ExitInfo2: 1<<1 | 1}
		if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, mon, gs); err != nil || gs.SwScratch != 0 {
			t.Fatalf("assign: %v, %d failed", err, gs.SwScratch)
		}
		if err := h.m.PValidate(snp.VMPL0, phys, true); err != nil {
			t.Fatal(err)
		}
		calls := v.calls
		ctx := snp.ContextFunc(func(snp.Reason) error { *calls++; return nil })
		if err := h.m.CreateVMSA(snp.VMPL0, phys, snp.VMSA{VCPUID: 0, VMPL: snp.VMPL2, CPL: snp.CPL3}, ctx); err != nil {
			t.Fatal(err)
		}
		g := &snp.GHCB{ExitCode: ExitRegisterVMSA, ExitInfo1: phys, ExitInfo2: uint64(v.tag)}
		if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, mon, g); err != nil {
			t.Fatal(err)
		}
	}
	gone := uint64((pgDonate + 1) * snp.PageSize)
	if err := h.m.DestroyVMSA(snp.VMPL0, gone); err != nil {
		t.Fatal(err)
	}
	// label is the rule the switch followed before it read the RMP: the
	// save area's VMPL, or VMPL0 for a page with none.
	label := func(phys uint64) uint64 {
		if v, err := h.m.VMSAAt(phys); err == nil {
			return uint64(v.VMPL)
		}
		return uint64(snp.VMPL0)
	}
	boot := uint64(pgBootVMSA * snp.PageSize)
	for _, c := range []struct {
		name     string
		tag      DomainTag
		target   uint64
		from, to snp.VMPL
		refused  bool
	}{
		{"boot VMSA to itself", tagMon, boot, snp.VMPL0, snp.VMPL0, false},
		{"boot to the OS replica", tagOS, pgOSVMSA * snp.PageSize, snp.VMPL0, snp.VMPL3, false},
		{"boot to an enclave", tagEnc, pgDonate * snp.PageSize, snp.VMPL0, snp.VMPL2, false},
		{"boot to a destroyed VMSA", tagGone, gone, snp.VMPL0, snp.VMPL0, true},
	} {
		spans, denied, err := h.switchLabels(t, mon, c.tag)
		if c.refused {
			want := [][2]uint64{{uint64(snp.DeniedVMRUN), c.target}}
			if !errors.Is(err, snp.ErrVMRUN) || !slices.Equal(denied, want) {
				t.Fatalf("%s: %v, refusals %v; want ErrVMRUN, %v", c.name, err, denied, want)
			}
		} else if err != nil || len(denied) != 0 {
			t.Fatalf("%s: %v, %d refusals", c.name, err, len(denied))
		}
		want := [][2]uint64{{uint64(c.from), uint64(c.to)}, {uint64(c.to), uint64(c.from)}}
		if !slices.Equal(spans, want) {
			t.Fatalf("%s: span labels %v, want %v", c.name, spans, want)
		}
		if old := [2]uint64{label(boot), label(c.target)}; spans[0] != old {
			t.Fatalf("%s: span labels %v, the save areas say %v", c.name, spans[0], old)
		}
	}
	if encCalls != 1 || goneCalls != 0 {
		t.Fatalf("the live enclave ran %d times and the destroyed one %d, want 1 and 0", encCalls, goneCalls)
	}

	// A GHCB with no policy is unrestricted, one with a policy reaches
	// only its tags; another page's policy does not restrict it.
	h.hv.SetGHCBPolicy(osg, tagEnc, tagOS)
	if _, denied, err := h.switchLabels(t, mon, tagEnc); err != nil || len(denied) != 0 {
		t.Fatalf("switch through an unrestricted GHCB: %v, %d refusals", err, len(denied))
	}
	h.hv.SetGHCBPolicy(mon, tagOS)
	spans, denied, err := h.switchLabels(t, mon, tagEnc)
	wantDenied := [][2]uint64{{uint64(snp.DeniedPolicy), uint64(tagEnc)}}
	if !errors.Is(err, ErrPolicy) || len(spans) != 0 || !slices.Equal(denied, wantDenied) {
		t.Fatalf("switch outside the policy: %v, %d spans, refusals %v; want ErrPolicy, none, %v", err, len(spans), denied, wantDenied)
	}
	if _, denied, err := h.switchLabels(t, mon, tagOS); err != nil || len(denied) != 0 {
		t.Fatalf("switch inside the policy: %v, %d refusals", err, len(denied))
	}
	// Setting a page's policy again replaces it.
	h.hv.SetGHCBPolicy(mon, tagEnc)
	if _, _, err := h.switchLabels(t, mon, tagOS); !errors.Is(err, ErrPolicy) {
		t.Fatalf("switch to a tag the new policy dropped: %v, want ErrPolicy", err)
	}
	if _, _, err := h.switchLabels(t, mon, tagEnc); err != nil {
		t.Fatalf("switch to the new policy's tag: %v", err)
	}
	if encCalls != 3 || goneCalls != 0 {
		t.Fatalf("the live enclave ran %d times and the destroyed one %d, want 3 and 0", encCalls, goneCalls)
	}
}

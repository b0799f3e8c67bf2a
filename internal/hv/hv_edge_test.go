package hv

import (
	"errors"
	"strings"
	"testing"

	"veil/internal/snp"
)

func TestStartVCPUDoubleStartRejected(t *testing.T) {
	h := newHarness(t)
	phys := uint64(pgDonate) * snp.PageSize
	gs := &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: phys, ExitInfo2: 1<<1 | 1}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, gs); err != nil {
		t.Fatal(err)
	}
	if err := h.m.PValidate(snp.VMPL0, phys, true); err != nil {
		t.Fatal(err)
	}
	if err := h.m.CreateVMSA(snp.VMPL0, phys, snp.VMSA{VCPUID: 1, VMPL: snp.VMPL3}, snp.ContextFunc(func(snp.Reason) error { return nil })); err != nil {
		t.Fatal(err)
	}
	g := &snp.GHCB{ExitCode: ExitStartVCPU, ExitInfo1: phys}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err != nil {
		t.Fatal(err)
	}
	g = &snp.GHCB{ExitCode: ExitStartVCPU, ExitInfo1: phys}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestStartVCPUUnknownVMSA(t *testing.T) {
	h := newHarness(t)
	g := &snp.GHCB{ExitCode: ExitStartVCPU, ExitInfo1: pgScratch * snp.PageSize}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err == nil {
		t.Fatal("start of non-VMSA page accepted")
	}
}

func TestUnknownExitCode(t *testing.T) {
	h := newHarness(t)
	g := &snp.GHCB{ExitCode: 0xDEAD_BEEF}
	err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g)
	if err == nil || !strings.Contains(err.Error(), "unknown exit code") {
		t.Fatalf("err = %v", err)
	}
}

func TestVMGEXITFromUnknownVCPU(t *testing.T) {
	h := newHarness(t)
	if err := h.hv.VMGEXIT(7); err == nil {
		t.Fatal("exit from unstarted VCPU accepted")
	}
}

func TestGuestRequestBadLength(t *testing.T) {
	h := newHarness(t)
	g := &snp.GHCB{ExitCode: ExitGuestRequest, SwScratch: uint64(len(snp.GHCB{}.Payload) + 1)}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err == nil {
		t.Fatal("oversized report data accepted")
	}
}

func TestGuestRequestWithoutPSP(t *testing.T) {
	m := snp.NewMachine(snp.Config{MemBytes: 8 * snp.PageSize, VCPUs: 1})
	hyp := New(m, nil) // no PSP
	boot := snp.ContextFunc(func(r snp.Reason) error {
		return m.WriteGHCBMSR(0, snp.CPL0, 1*snp.PageSize)
	})
	if err := hyp.Launch(nil, 0, snp.VMSA{VCPUID: 0, VMPL: snp.VMPL0}, 1, boot); err != nil {
		t.Fatal(err)
	}
	g := &snp.GHCB{ExitCode: ExitGuestRequest, SwScratch: 4}
	if err := hyp.GuestCall(0, snp.VMPL0, snp.CPL0, 1*snp.PageSize, g); err == nil {
		t.Fatal("attestation without a PSP succeeded")
	}
}

func TestResumeValidation(t *testing.T) {
	h := newHarness(t)
	if err := h.hv.Resume(9, pgBootVMSA); err == nil {
		t.Fatal("resume of unknown VCPU accepted")
	}
	if err := h.hv.Resume(0, pgScratch*snp.PageSize); err == nil {
		t.Fatal("resume onto a non-VMSA page accepted")
	}
	if err := h.hv.Resume(0, pgOSVMSA*snp.PageSize); err != nil {
		t.Fatal(err)
	}
	cur, _ := h.hv.CurrentVMSA(0)
	if cur != pgOSVMSA*snp.PageSize {
		t.Fatal("resume did not switch the current VMSA")
	}
}

// TestResumeRefusesAnotherVCPUsVMSA: Resume applies VMRUN's check, so a
// host cannot rest VCPU 1 on VCPU 0's OS replica. Had it done so, a guest
// request from VCPU 1 would be signed with that page's VMPL.
func TestResumeRefusesAnotherVCPUsVMSA(t *testing.T) {
	h := newHarness(t)
	phys := uint64(pgDonate) * snp.PageSize
	gs := &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: phys, ExitInfo2: 1<<1 | 1}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, gs); err != nil {
		t.Fatal(err)
	}
	if err := h.m.PValidate(snp.VMPL0, phys, true); err != nil {
		t.Fatal(err)
	}
	ap := snp.ContextFunc(func(snp.Reason) error { return nil })
	if err := h.m.CreateVMSA(snp.VMPL0, phys, snp.VMSA{VCPUID: 1, VMPL: snp.VMPL3}, ap); err != nil {
		t.Fatal(err)
	}
	g := &snp.GHCB{ExitCode: ExitStartVCPU, ExitInfo1: phys}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err != nil {
		t.Fatal(err)
	}
	if err := h.hv.Resume(1, pgOSVMSA*snp.PageSize); !errors.Is(err, snp.ErrVMRUN) {
		t.Fatalf("resume of VCPU 1 onto VCPU 0's VMSA: %v, want ErrVMRUN", err)
	}
	if cur, _ := h.hv.CurrentVMSA(1); cur != phys {
		t.Fatalf("VCPU 1 rests on %#x after the refusal, want its own VMSA %#x", cur, phys)
	}
	if err := h.hv.Resume(1, phys); err != nil {
		t.Fatalf("resume onto its own VMSA: %v", err)
	}
}

func TestInterruptWithoutTargetHitsCurrent(t *testing.T) {
	h := newHarness(t)
	// No relay configuration at all: the interrupted context handles it.
	if err := h.hv.InjectInterrupt(0); err != nil {
		t.Fatal(err)
	}
	if len(h.monCalls) != 1 || h.monCalls[0] != snp.ReasonInterrupt {
		t.Fatalf("monitor calls = %v", h.monCalls)
	}
}

func TestPageStateReclaimPath(t *testing.T) {
	h := newHarness(t)
	phys := uint64(pgDonate) * snp.PageSize
	// Assign, validate, then invalidate and reclaim.
	g := &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: phys, ExitInfo2: 1<<1 | 1}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err != nil {
		t.Fatal(err)
	}
	if err := h.m.PValidate(snp.VMPL0, phys, true); err != nil {
		t.Fatal(err)
	}
	// Reclaim of a validated page must fail (count lands in SwScratch).
	g = &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: phys, ExitInfo2: 1 << 1}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err != nil {
		t.Fatal(err)
	}
	if g.SwScratch != 1 {
		t.Fatalf("reclaim of validated page reported %d failures, want 1", g.SwScratch)
	}
	// After invalidation the reclaim succeeds.
	if err := h.m.PValidate(snp.VMPL0, phys, false); err != nil {
		t.Fatal(err)
	}
	g = &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: phys, ExitInfo2: 1 << 1}
	if err := h.hv.GuestCall(0, snp.VMPL0, snp.CPL0, pgMonGHCB*snp.PageSize, g); err != nil {
		t.Fatal(err)
	}
	if g.SwScratch != 0 {
		t.Fatalf("reclaim failed: %d", g.SwScratch)
	}
	e, _ := h.m.RMPEntryAt(phys)
	if e.Assigned {
		t.Fatal("page still assigned after reclaim")
	}
}

// Every entry point that takes a VCPU id refuses one the machine does not
// have: the MSR write raises #GP, the hypervisor returns an error, and no
// state is kept for the id.
func TestOutOfRangeVCPURefused(t *testing.T) {
	h := newHarness(t)
	n := h.m.VCPUs()
	for _, id := range []int{-1, n} {
		calls := []struct {
			name string
			call func() error
		}{
			{"WriteGHCBMSR", func() error {
				err := h.m.WriteGHCBMSR(id, snp.CPL0, pgMonGHCB*snp.PageSize)
				if err != nil && !snp.IsGP(err) {
					t.Errorf("WriteGHCBMSR(%d): %v, want #GP", id, err)
				}
				return err
			}},
			{"VMGEXIT", func() error { return h.hv.VMGEXIT(id) }},
			{"InjectInterrupt", func() error { return h.hv.InjectInterrupt(id) }},
			{"CurrentVMSA", func() error {
				if _, ok := h.hv.CurrentVMSA(id); ok {
					return nil
				}
				return errors.New("unknown VCPU")
			}},
			{"Resume", func() error { return h.hv.Resume(id, pgOSVMSA*snp.PageSize) }},
		}
		for _, c := range calls {
			if err := c.call(); err == nil {
				t.Errorf("%s(%d) accepted a VCPU the %d-VCPU machine does not have", c.name, id, n)
			}
		}
		if _, ok := h.m.ReadGHCBMSR(id); ok {
			t.Errorf("ReadGHCBMSR(%d) reports an MSR for a VCPU that does not exist", id)
		}
	}
	if f := h.m.Halted(); f != nil {
		t.Fatalf("refusals halted the machine: %v", f)
	}
}

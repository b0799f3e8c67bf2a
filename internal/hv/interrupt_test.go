package hv

import (
	"errors"
	"testing"

	"veil/internal/snp"
)

// Satellite coverage for InjectInterrupt's hostile modes, driven directly
// at the hypervisor (the attack suites exercise the same modes through a
// whole CVM; these pin the relay mechanics in isolation).

// RefuseRelay must force the interrupt into the interrupted domain. The
// harness stands in for a protected domain: its OS interrupt vector is
// unreachable, so handling the interrupt there is an exec #NPF and the CVM
// halts — the Table 2 defence, observed end to end from one InjectInterrupt.
func TestRefuseRelayForcesInterruptedDomainAndHalts(t *testing.T) {
	h := newHarness(t)
	const osHandlerVirt = 0x0000_7FFF_FF00_0000
	h.mon = func(r snp.Reason) error {
		if r != snp.ReasonInterrupt {
			return nil
		}
		f := &snp.Fault{Kind: snp.FaultNPF, VMPL: snp.VMPL0, CPL: snp.CPL0,
			Access: snp.AccessExec, Virt: osHandlerVirt,
			Why: "interrupt vector unreachable from interrupted domain (refused relay)"}
		return h.m.Halt(f)
	}
	h.hv.SetInterruptRelay(RefuseRelay, tagOS)

	err := h.hv.InjectInterrupt(0)
	if err == nil {
		t.Fatal("refused relay did not surface the halt")
	}
	f := h.m.Halted()
	if f == nil {
		t.Fatal("CVM not halted")
	}
	if f.Kind != snp.FaultNPF || f.Virt != osHandlerVirt {
		t.Fatalf("halt fault = %+v, want exec #NPF at the OS handler", f)
	}
	if len(h.osCalls) != 0 {
		t.Fatalf("OS handler ran despite refused relay: %v", h.osCalls)
	}
	// The halt is terminal: later injections fail fast, nothing more runs.
	if err := h.hv.InjectInterrupt(0); !errors.Is(err, snp.ErrHalted) {
		t.Fatalf("post-halt injection = %v, want ErrHalted", err)
	}
}

// DropInterrupt must be a perfect swallow: no guest context runs and no
// cycles are charged — exactly the silence the scheduler has to detect.
func TestDropInterruptDeliversNothing(t *testing.T) {
	h := newHarness(t)
	h.hv.SetInterruptRelay(DropInterrupt, tagOS)
	clk := h.m.Clock().Snapshot()
	if err := h.hv.InjectInterrupt(0); err != nil {
		t.Fatal(err)
	}
	if n := len(h.monCalls) + len(h.osCalls); n != 0 {
		t.Fatalf("%d guest contexts ran on a dropped interrupt", n)
	}
	if d := h.m.Clock().Since(clk); d != 0 {
		t.Fatalf("dropped interrupt charged %d cycles", d)
	}
}

// With no other started VCPU to misroute to, MisrouteVCPU degrades to
// delivery on the original VCPU — and since the mode is not
// RelayToUntrusted, the interrupted domain takes the interrupt.
func TestMisrouteVCPUWithNoPeerHitsInterruptedDomain(t *testing.T) {
	h := newHarness(t)
	h.hv.SetInterruptRelay(MisrouteVCPU, tagOS)
	if err := h.hv.InjectInterrupt(0); err != nil {
		t.Fatal(err)
	}
	if len(h.monCalls) != 1 || h.monCalls[0] != snp.ReasonInterrupt {
		t.Fatalf("monitor calls: %v", h.monCalls)
	}
	if len(h.osCalls) != 0 {
		t.Fatal("OS resumed despite misroute mode")
	}
}

// Misrouting picks its victim deterministically: lowest-numbered other
// started VCPU.
func TestOtherStartedVCPUDeterministic(t *testing.T) {
	h := &Hypervisor{vcpus: []vcpu{
		{id: 0, started: true},
		{id: 1, started: true},
		{id: 2, started: false},
		{id: 3, started: true},
	}}
	for i := 0; i < 32; i++ {
		if got := h.otherStartedVCPU(0); got != 1 {
			t.Fatalf("otherStartedVCPU(0) = %d, want 1 (lowest started peer)", got)
		}
		if got := h.otherStartedVCPU(1); got != 0 {
			t.Fatalf("otherStartedVCPU(1) = %d, want 0", got)
		}
		if got := h.otherStartedVCPU(2); got != 0 {
			t.Fatalf("otherStartedVCPU(2) = %d, want 0", got)
		}
	}
	solo := &Hypervisor{vcpus: make([]vcpu, 6)}
	solo.vcpus[5] = vcpu{id: 5, started: true}
	if got := solo.otherStartedVCPU(5); got != 5 {
		t.Fatalf("sole VCPU misrouted to %d, want itself", got)
	}
}

package hv

import (
	"fmt"
	"slices"

	"veil/internal/attest"
	"veil/internal/snp"
)

// Launch boots the CVM: it loads the boot-image regions and records their
// attest.MeasureRegions digest, the one later attested to remote users
// (§5.1); creates the boot VCPU's VMSA holding ctx — which the architecture
// pins at VMPL0, so under Veil the entry context is VeilMon, not the
// kernel — and synchronously runs it.
//
// bootTag names the boot VMSA for subsequent domain switches.
func (h *Hypervisor) Launch(regions []attest.Region, bootVMSAPhys uint64, boot snp.VMSA, bootTag DomainTag, ctx snp.Context) error {
	if h.launched {
		return fmt.Errorf("hv: CVM already launched")
	}
	for _, r := range regions {
		if err := h.m.LaunchLoad(r.Phys, r.Data); err != nil {
			return fmt.Errorf("hv: launch load at %#x: %w", r.Phys, err)
		}
	}
	h.measurement = attest.MeasureRegions(regions)

	boot.VMPL = snp.VMPL0
	if err := h.m.HVCreateBootVMSA(bootVMSAPhys, boot, ctx); err != nil {
		return fmt.Errorf("hv: boot VMSA: %w", err)
	}
	h.launched = true
	c := &h.vcpus[boot.VCPUID]
	c.currentVMSA, c.started = bootVMSAPhys, true
	c.bind(binding{tag: bootTag, vmsaPhys: bootVMSAPhys})

	h.m.SetObsVCPU(boot.VCPUID)
	h.m.Clock().Charge(snp.CostVMENTER, snp.CyclesVMENTERRestore)
	h.m.ObserveVMENTER()
	return h.m.VMRUN(boot.VCPUID, bootVMSAPhys, snp.ReasonBoot)
}

// SetGHCBPolicy restricts the set of domain tags reachable through the GHCB
// page at ghcbPhys. VeilS-Enc instructs the hypervisor to allow only
// Dom-UNT↔Dom-ENC switches on user-mapped GHCBs (§6.2). The hypervisor is
// untrusted, but following this instruction is in the host's own interest
// (errant switches crash the CVM); hostile deviation is exercised in tests.
func (h *Hypervisor) SetGHCBPolicy(ghcbPhys uint64, tags ...DomainTag) {
	h.ghcbPolicy[ghcbPhys] = slices.Clone(tags)
}

// SetInterruptRelay configures what the hypervisor does with automatic
// exits taken while a non-OS domain runs: Veil instructs RelayToUntrusted
// with the OS's tag (§6.2); RefuseRelay is the Table 2 attack mode.
func (h *Hypervisor) SetInterruptRelay(mode InterruptMode, target DomainTag) {
	h.interruptMode = mode
	h.interruptTarget = target
	h.hasIntrTarget = true
}

// CurrentVMSA returns the VMSA the given VCPU is executing (bookkeeping the
// real host keeps in struct vcpu_svm).
func (h *Hypervisor) CurrentVMSA(vcpuID int) (uint64, bool) {
	c := h.running(vcpuID)
	if c == nil {
		return 0, false
	}
	return c.currentVMSA, true
}

// Resume marks vmsaPhys as the VCPU's steady-state instance. The simulation
// uses it after boot completes: nested boot calls have unwound, but the
// system's resting context is the OS domain, and attestation requests must
// reflect the VMPL of whoever is actually running. VMRUN's check applies.
func (h *Hypervisor) Resume(vcpuID int, vmsaPhys uint64) error {
	c := h.running(vcpuID)
	if c == nil {
		return fmt.Errorf("hv: resume of unknown VCPU %d", vcpuID)
	}
	if err := h.m.CheckVMRUN(vcpuID, vmsaPhys); err != nil {
		return err
	}
	c.currentVMSA = vmsaPhys
	return nil
}

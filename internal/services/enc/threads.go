package enc

import (
	"fmt"

	"veil/internal/core"
	"veil/internal/hv"
	"veil/internal/snp"
)

// Multi-threaded enclaves (§7's future-work design, implemented): the OS
// scheduler requests scheduling of an enclave thread on another VCPU, and
// VeilMon creates a Dom-ENC VMSA for that VCPU sharing the enclave's
// protected page tables and entry state. The thread enters and exits
// through its own per-thread GHCB, as §6.2 prescribes.

// AddThread creates a synchronized Dom-ENC VMSA for the enclave on vcpu,
// entered through the per-thread GHCB at ghcbPhys. ctx is the thread's
// trusted runtime (simulation wiring, like the finalize factory).
func (s *Service) AddThread(id uint32, vcpu int, ghcbPhys uint64, ctx hv.Context) error {
	e, ok := s.Enclave(id)
	if !ok {
		return fmt.Errorf("enc: no enclave %d", id)
	}
	s.mon.ChargeServiceSwitch()
	if vcpu < 0 || vcpu >= s.mon.Layout().VCPUs {
		return errDenied
	}
	if vcpu == e.vcpu {
		return fmt.Errorf("enc: enclave %d already runs on VCPU %d", id, vcpu)
	}
	if _, exists := e.threads[vcpu]; exists {
		return fmt.Errorf("enc: enclave %d already has a thread on VCPU %d", id, vcpu)
	}
	// The per-thread GHCB must be a page-aligned shared page (same check as
	// finalize).
	if ge, err := s.mon.Machine().RMPEntryAt(ghcbPhys); err != nil || ge.Assigned || snp.PageOffset(ghcbPhys) != 0 {
		return errDenied
	}
	vmsa, err := s.mon.CreateEnclaveVCPU(vcpu, e.tag, e.clone.CR3(), e.entry, ctx)
	if err != nil {
		return err
	}
	e.threads[vcpu] = vmsa
	s.hyp.SetGHCBPolicy(ghcbPhys, hv.DomainTag(e.tag), hv.DomainTag(core.DomUNT))
	return nil
}

// Threads returns the VCPUs this enclave has additional threads on.
func (s *Service) Threads(id uint32) []int {
	e, ok := s.Enclave(id)
	if !ok {
		return nil
	}
	out := make([]int, 0, len(e.threads))
	for v := range e.threads {
		out = append(out, v)
	}
	return out
}

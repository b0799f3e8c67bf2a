package snp

import "fmt"

// VMSA is a virtual machine save area: the protected register state of one
// VCPU instance. Under Veil a physical VCPU has one VMSA replica per domain
// (§5.2); each replica is pinned to its VMPL for its whole lifetime.
type VMSA struct {
	VCPUID int  // which physical VCPU this instance belongs to
	VMPL   VMPL // fixed at creation
	CPL    CPL  // current ring of the saved context

	// RIP is the saved instruction pointer. Software layers in the model
	// are Go handlers, so RIP is a symbolic entry token: the hypervisor
	// and machine use it only for bookkeeping and attack tests (e.g. a
	// hypervisor attempting to corrupt a saved rip).
	RIP uint64
	RSP uint64
	CR3 uint64 // page-table root of the saved context

	GPR [16]uint64 // general-purpose registers

	// Runnable marks the instance as eligible for VMENTER.
	Runnable bool
}

// CreateVMSA models RMPADJUST with the VMSA attribute: it turns the page at
// phys into a save area containing state, runnable at state.VMPL.
//
// Only VMPL0 software may create VMSAs. This single architectural rule is
// what lets VeilMon retain exclusive control over VCPU (and hence domain)
// creation: the OS at VMPL3 cannot mint itself a privileged VCPU (§8.1,
// Table 1 "Create VCPU at Dom-MON/Dom-SRV").
func (m *Machine) CreateVMSA(callerVMPL VMPL, phys uint64, state VMSA) error {
	if err := m.checkRunning(); err != nil {
		return err
	}
	pi, err := m.pageIndex(phys)
	if err != nil {
		return err
	}
	if PageOffset(phys) != 0 {
		return fmt.Errorf("snp: VMSA must be page aligned, got %#x", phys)
	}
	if callerVMPL != VMPL0 {
		f := &Fault{Kind: FaultGP, VMPL: callerVMPL, Phys: phys, Why: "RMPADJUST(VMSA) requires VMPL0"}
		m.ObserveFault(f)
		return f
	}
	if !state.VMPL.Valid() {
		f := &Fault{Kind: FaultGP, VMPL: callerVMPL, Phys: phys, Why: "VMSA with invalid target VMPL"}
		m.ObserveFault(f)
		return f
	}
	e := &m.rmp[pi]
	if !e.Assigned || !e.Validated {
		f := &Fault{Kind: FaultNPF, VMPL: callerVMPL, Phys: phys, Why: "VMSA page not assigned+validated"}
		m.Halt(f)
		return f
	}
	if e.VMSA {
		return fmt.Errorf("snp: page %#x already holds a VMSA", phys)
	}
	e.VMSA = true
	e.VMSATargetVMPL = state.VMPL
	v := state
	m.vmsas[phys] = &v
	m.rmpFlushTLB() // the page just became inaccessible to loads/stores
	m.clock.Charge(CostRMPADJUST, CyclesRMPADJUST)
	m.observeRMPAdjust(callerVMPL, state.VMPL, phys, PermNone)
	return nil
}

// HVCreateBootVMSA is the launch-time path: the hypervisor creates the boot
// VCPU's save area, which the architecture pins at VMPL0 (§3: "the boot
// VCPU instance ... is always created by the hypervisor at VMPL-0"). Under
// Veil this is the VMSA VeilMon itself boots on.
func (m *Machine) HVCreateBootVMSA(phys uint64, state VMSA) error {
	pi, err := m.pageIndex(phys)
	if err != nil {
		return err
	}
	if state.VMPL != VMPL0 {
		return fmt.Errorf("snp: boot VMSA is always VMPL0")
	}
	e := &m.rmp[pi]
	if e.Assigned || e.VMSA {
		return fmt.Errorf("snp: boot VMSA page %#x already in use", phys)
	}
	*e = RMPEntry{Assigned: true, Validated: true, VMSA: true, VMSATargetVMPL: VMPL0,
		Perms: [NumVMPLs]Perm{VMPL0: PermAll}}
	m.validatedCount++
	v := state
	v.Runnable = true
	m.vmsas[phys] = &v
	m.rmpFlushTLB() // the page just became inaccessible to loads/stores
	return nil
}

// VMSAAt returns the save area stored at phys, for the machine/hypervisor
// VMENTER path. The content is protected guest state: the hypervisor may
// schedule it but the model gives it no mutating access (SEV-SNP keeps
// VMSAs inside the CVM; see Table 2 "Violate saved state ... from
// hypervisor").
func (m *Machine) VMSAAt(phys uint64) (*VMSA, error) {
	v, ok := m.vmsas[phys]
	if !ok {
		return nil, fmt.Errorf("snp: no VMSA at %#x", phys)
	}
	return v, nil
}

// VMSAVMPL returns the VMPL the VMSA at phys runs at, read from the page's
// RMP entry: the VMSA bit and the target VMPL CreateVMSA stamped there. A
// page that holds no VMSA (never created, destroyed, or not a page base)
// reads as VMPL0. The hypervisor labels domain-switch spans with it.
func (m *Machine) VMSAVMPL(phys uint64) VMPL {
	if phys >= m.cfg.MemBytes || PageOffset(phys) != 0 {
		return VMPL0
	}
	if e := &m.rmp[phys>>PageShift]; e.VMSA {
		return e.VMSATargetVMPL
	}
	return VMPL0
}

// DestroyVMSA releases a save area (VMPL0 only), returning the page to
// normal guest-private use.
func (m *Machine) DestroyVMSA(callerVMPL VMPL, phys uint64) error {
	if err := m.checkRunning(); err != nil {
		return err
	}
	if callerVMPL != VMPL0 {
		f := &Fault{Kind: FaultGP, VMPL: callerVMPL, Phys: phys, Why: "VMSA destroy requires VMPL0"}
		m.ObserveFault(f)
		return f
	}
	pi, err := m.pageIndex(phys)
	if err != nil {
		return err
	}
	if _, ok := m.vmsas[phys]; !ok {
		return fmt.Errorf("snp: no VMSA at %#x", phys)
	}
	delete(m.vmsas, phys)
	e := &m.rmp[pi]
	e.VMSA = false
	e.Perms = [NumVMPLs]Perm{VMPL0: PermAll}
	m.rmpFlushTLB() // page re-entered normal use with a fresh permission vector
	return nil
}

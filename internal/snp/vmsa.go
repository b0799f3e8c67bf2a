package snp

import (
	"errors"
	"fmt"
	"slices"
)

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
}

// Reason tells a guest context why it was entered.
type Reason int

const (
	// ReasonBoot is the first entry of a fresh VCPU instance.
	ReasonBoot Reason = iota
	// ReasonService is a hypervisor-relayed domain switch (the target
	// should consult its IDCB for the request).
	ReasonService
	// ReasonInterrupt is an interrupt delivery (only the domain that the
	// hypervisor chooses to resume sees it; under Veil's instructions that
	// is Dom-UNT).
	ReasonInterrupt
	// ReasonDoorbell is a batched-ring doorbell: the target should drain
	// its submission ring rather than consult the IDCB.
	ReasonDoorbell
)

var reasonNames = [...]string{"boot", "service", "interrupt", "doorbell"}

func (r Reason) String() string {
	if r >= 0 && int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "reason(?)"
}

// Context is the guest software a VMSA holds: a Go handler standing in for
// the code at the save area's rip. VMRUN invokes it; when it returns, the
// instance has exited back to the host. This call/return structure models
// the paper's exit/enter pairs while keeping the simulation synchronous.
type Context interface {
	Invoke(reason Reason) error
}

// ContextFunc adapts a function to the Context interface.
type ContextFunc func(reason Reason) error

// Invoke calls f.
func (f ContextFunc) Invoke(reason Reason) error { return f(reason) }

// vmsaSlot is one live save area: its page, guest code and state.
type vmsaSlot struct {
	phys  uint64
	ctx   Context
	state *VMSA
}

// ErrVMRUN refuses a page that is not a VMSA of the entering VCPU.
var ErrVMRUN = errors.New("snp: VMRUN refused")

// CreateVMSA models RMPADJUST with the VMSA attribute: it turns the page at
// phys into a save area containing state, runnable at state.VMPL, whose
// guest code is ctx.
//
// Only VMPL0 software may create VMSAs. This single architectural rule is
// what lets VeilMon retain exclusive control over VCPU (and hence domain)
// creation: the OS at VMPL3 cannot mint itself a privileged VCPU (§8.1,
// Table 1 "Create VCPU at Dom-MON/Dom-SRV").
func (m *Machine) CreateVMSA(callerVMPL VMPL, phys uint64, state VMSA, ctx Context) error {
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
	if err := m.addVMSA(phys, state, ctx); err != nil {
		return err
	}
	e.VMSA = true
	e.VMSATargetVMPL = state.VMPL
	m.rmpFlushTLB() // the page just became inaccessible to loads/stores
	m.clock.Charge(CostRMPADJUST, CyclesRMPADJUST)
	m.observeRMPAdjust(callerVMPL, state.VMPL, phys, PermNone)
	return nil
}

// addVMSA files a new save area under its VCPU. It refuses one that names
// no VCPU of the machine or holds no guest code.
func (m *Machine) addVMSA(phys uint64, state VMSA, ctx Context) error {
	if state.VCPUID < 0 || state.VCPUID >= len(m.vmsas) || ctx == nil {
		return fmt.Errorf("snp: a VMSA must name one of the machine's %d VCPUs (not %d) and hold guest code", len(m.vmsas), state.VCPUID)
	}
	m.vmsas[state.VCPUID] = append(m.vmsas[state.VCPUID], vmsaSlot{phys: phys, ctx: ctx, state: &state})
	return nil
}

// HVCreateBootVMSA is the launch-time path: the hypervisor creates the boot
// VCPU's save area, which the architecture pins at VMPL0 (§3: "the boot
// VCPU instance ... is always created by the hypervisor at VMPL-0"). Under
// Veil this is the VMSA VeilMon itself boots on, and ctx is VeilMon.
func (m *Machine) HVCreateBootVMSA(phys uint64, state VMSA, ctx Context) error {
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
	if err := m.addVMSA(phys, state, ctx); err != nil {
		return err
	}
	*e = RMPEntry{Assigned: true, Validated: true, VMSA: true, VMSATargetVMPL: VMPL0,
		Perms: [NumVMPLs]Perm{VMPL0: PermAll}}
	m.validatedCount++
	m.rmpFlushTLB() // the page just became inaccessible to loads/stores
	return nil
}

// VMRUN enters the save area at phys on vcpu and runs its guest code with
// reason. The host picks the page, the hardware what runs: a page that is
// not one of this VCPU's few save areas (a scan, no map) or whose RMP entry
// (read by index) is not a VMSA is refused with ErrVMRUN and one
// DeniedVMRUN event, and nothing runs. The caller charges the VMENTER.
func (m *Machine) VMRUN(vcpu int, phys uint64, reason Reason) error {
	ctx := m.vmrunContext(vcpu, phys)
	if ctx == nil {
		return m.refuseVMRUN(vcpu, phys)
	}
	return ctx.Invoke(reason)
}

// CheckVMRUN applies VMRUN's check without entering the page (hv.Resume).
func (m *Machine) CheckVMRUN(vcpu int, phys uint64) error {
	if m.vmrunContext(vcpu, phys) == nil {
		return m.refuseVMRUN(vcpu, phys)
	}
	return nil
}

// vmrunContext is VMRUN's check: the guest code at phys if the page is one
// of vcpu's save areas (so a page base in range) and its RMP entry is a
// VMSA, else nil.
func (m *Machine) vmrunContext(vcpu int, phys uint64) Context {
	if uint(vcpu) < uint(len(m.vmsas)) {
		for _, s := range m.vmsas[vcpu] {
			if s.phys == phys && m.rmp[phys>>PageShift].VMSA {
				return s.ctx
			}
		}
	}
	return nil
}

func (m *Machine) refuseVMRUN(vcpu int, phys uint64) error {
	m.ObserveDenied(DeniedVMRUN, phys)
	return fmt.Errorf("%w: page %#x is not a VMSA of VCPU %d", ErrVMRUN, phys, vcpu)
}

// vmsaAt returns the state of the live save area at phys, or nil.
func (m *Machine) vmsaAt(phys uint64) *VMSA {
	for _, slots := range m.vmsas {
		for _, s := range slots {
			if s.phys == phys {
				return s.state
			}
		}
	}
	return nil
}

// VMSAAt returns the save area stored at phys. The content is protected
// guest state: the hypervisor may schedule it but the model gives it no
// mutating access (SEV-SNP keeps VMSAs inside the CVM; see Table 2
// "Violate saved state ... from hypervisor").
func (m *Machine) VMSAAt(phys uint64) (*VMSA, error) {
	v := m.vmsaAt(phys)
	if v == nil {
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

// DestroyVMSA releases a save area (VMPL0 only), dropping the guest code it
// held and returning the page to normal guest-private use.
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
	v := m.vmsaAt(phys)
	if v == nil {
		return fmt.Errorf("snp: no VMSA at %#x", phys)
	}
	m.vmsas[v.VCPUID] = slices.DeleteFunc(m.vmsas[v.VCPUID], func(s vmsaSlot) bool { return s.phys == phys })
	e := &m.rmp[pi]
	e.VMSA = false
	e.Perms = [NumVMPLs]Perm{VMPL0: PermAll}
	m.rmpFlushTLB() // page re-entered normal use with a fresh permission vector
	return nil
}

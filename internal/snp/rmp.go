package snp

import "fmt"

// RMPEntry is one reverse-map-table entry: the hardware's record of who owns
// a physical page and what each VMPL may do with it (§3).
type RMPEntry struct {
	// Assigned marks the page as guest-private (encrypted, inaccessible
	// to the hypervisor). Unassigned pages are "shared" and usable for
	// guest-hypervisor communication (GHCB, bounce buffers).
	Assigned bool
	// Validated is the guest-side PVALIDATE state. A guest access to an
	// assigned-but-unvalidated page faults; this is how SNP prevents the
	// hypervisor from remapping pages behind the guest's back.
	Validated bool
	// VMSA marks the page as a VCPU save area. VMSA pages are not
	// accessible through normal loads/stores at any VMPL.
	VMSA bool
	// VMSATargetVMPL records, for VMSA pages, the privilege level the
	// contained VCPU instance runs at.
	VMSATargetVMPL VMPL
	// Perms holds the per-VMPL access permission vectors. On assigned
	// pages Perms[VMPL0] is always PermAll: the architecture does not
	// allow revoking VMPL0 permissions.
	Perms [NumVMPLs]Perm
}

// checkGuestAccess enforces the RMP rules for a guest access. It returns a
// *Fault (as error) on violation; the caller is responsible for halting.
func (e *RMPEntry) checkGuestAccess(vmpl VMPL, cpl CPL, a Access) error {
	if !vmpl.Valid() {
		return &Fault{Kind: FaultGP, VMPL: vmpl, CPL: cpl, Access: a, Why: "invalid VMPL"}
	}
	if e.VMSA {
		return &Fault{Kind: FaultNPF, VMPL: vmpl, CPL: cpl, Access: a, Why: "access to in-use VMSA page"}
	}
	if !e.Assigned {
		// Shared page: both sides may read and write (bounce buffers,
		// GHCB); instruction fetches from shared memory are refused.
		if a == AccessExec {
			return &Fault{Kind: FaultNPF, VMPL: vmpl, CPL: cpl, Access: a, Why: "execute from shared (unassigned) page"}
		}
		return nil
	}
	if !e.Validated {
		return &Fault{Kind: FaultNPF, VMPL: vmpl, CPL: cpl, Access: a, Why: "access to unvalidated page"}
	}
	if need := permFor(a, cpl); !e.Perms[vmpl].Has(need) {
		return &Fault{Kind: FaultNPF, VMPL: vmpl, CPL: cpl, Access: a,
			Why: fmt.Sprintf("RMP denies %s (have %s at %s)", need, e.Perms[vmpl], vmpl)}
	}
	return nil
}

// guestAccessOK reports whether checkGuestAccess would allow the access,
// without constructing the fault. The invariant auditor's sweeps probe
// RMP entries millions of times on healthy machines where denial is the
// expected outcome, and each *Fault would be a heap allocation; this twin
// keeps those loops allocation-free. TestGuestAccessOKMatchesCheck pins
// the two implementations together over the full entry state space.
func (e *RMPEntry) guestAccessOK(vmpl VMPL, cpl CPL, a Access) bool {
	if !vmpl.Valid() || e.VMSA {
		return false
	}
	if !e.Assigned {
		return a != AccessExec
	}
	if !e.Validated {
		return false
	}
	return e.Perms[vmpl].Has(permFor(a, cpl))
}

// RMPEntryAt returns a copy of the RMP entry for the page containing phys.
// (Inspection only; the architectural mutators are RMPAdjust, PValidate and
// the hypervisor assignment calls.)
func (m *Machine) RMPEntryAt(phys uint64) (RMPEntry, error) {
	pi, err := m.pageIndex(phys)
	if err != nil {
		return RMPEntry{}, err
	}
	return m.rmp[pi], nil
}

// RMPAdjust models the RMPADJUST instruction: software at callerVMPL sets
// the permission vector of targetVMPL on the page at phys. It is a run of
// one page (see RunRMP).
func (m *Machine) RMPAdjust(callerVMPL VMPL, phys uint64, targetVMPL VMPL, perms Perm) error {
	pages := [1]uint64{phys}
	grants := [1]Grant{{Target: targetVMPL, Perms: perms}}
	return m.RunRMP(&RMPRun{Caller: callerVMPL, Pages: pages[:], Grants: grants[:]})
}

// PValidate models the PVALIDATE instruction, which changes a page's
// validated state. It is a run of one page (see RunRMP).
func (m *Machine) PValidate(callerVMPL VMPL, phys uint64, validate bool) error {
	op := PVRescind
	if validate {
		op = PVAccept
	}
	pages := [1]uint64{phys}
	return m.RunRMP(&RMPRun{Caller: callerVMPL, Pages: pages[:], Validate: op})
}

// rmpAdjust executes one RMPADJUST by callerVMPL on the page at phys,
// page pi of guest memory, setting g.Target's permission vector to
// g.Perms. It returns a refusal without recording it: RunRMP records a
// *Fault after the events of the instructions before it.
//
// Architectural rules enforced (§3, §5.1):
//   - the target VMPL must be strictly less privileged than callerVMPL
//     (#GP otherwise); a VCPU can never raise its own or a peer's
//     privileges.
//   - the page must be assigned and validated (#NPF otherwise).
//   - callerVMPL must itself hold read+write permission on the page; an
//     OS calling RMPADJUST on a Veil-restricted page therefore takes an
//     #NPF, which halts the CVM (§5.1 "Dom-UNT").
//   - the caller cannot grant a permission it does not itself hold.
//
// A successful call charges CyclesRMPADJUST.
func (m *Machine) rmpAdjust(callerVMPL VMPL, phys, pi uint64, g Grant) error {
	if err := m.checkRunning(); err != nil {
		return err
	}
	if !g.Target.Valid() || !callerVMPL.MorePrivilegedThan(g.Target) {
		return &Fault{Kind: FaultGP, VMPL: callerVMPL, Phys: phys,
			Why: fmt.Sprintf("RMPADJUST target %s not below caller %s", g.Target, callerVMPL)}
	}
	e := &m.rmp[pi]
	if e.VMSA {
		return &Fault{Kind: FaultNPF, VMPL: callerVMPL, Phys: phys, Access: AccessWrite, Why: "RMPADJUST on in-use VMSA page"}
	}
	if !e.Assigned || !e.Validated {
		return &Fault{Kind: FaultNPF, VMPL: callerVMPL, Phys: phys, Access: AccessWrite, Why: "RMPADJUST on unassigned/unvalidated page"}
	}
	if !e.Perms[callerVMPL].Has(PermRW) {
		return &Fault{Kind: FaultNPF, VMPL: callerVMPL, Phys: phys, Access: AccessWrite,
			Why: fmt.Sprintf("RMPADJUST caller lacks rw on page (have %s)", e.Perms[callerVMPL])}
	}
	if !e.Perms[callerVMPL].Has(g.Perms) {
		return &Fault{Kind: FaultGP, VMPL: callerVMPL, Phys: phys,
			Why: fmt.Sprintf("RMPADJUST grants %s beyond caller's %s", g.Perms, e.Perms[callerVMPL])}
	}
	e.Perms[g.Target] = g.Perms
	m.rmpFlushTLB() // hardware requires TLB invalidation after RMPADJUST
	m.clock.Charge(CostRMPADJUST, CyclesRMPADJUST)
	m.trace.RMPAdjusts++
	return nil
}

// pvalidate executes one PVALIDATE by callerVMPL on the page at phys and
// returns a refusal without recording it, like rmpAdjust. PVALIDATE is
// architecturally restricted to VMPL0 — this is the reason the Veil
// kernel must delegate page-state changes to VeilMon (§5.3 "Page state
// change delegation").
func (m *Machine) pvalidate(callerVMPL VMPL, phys, pi uint64, validate bool) error {
	if err := m.checkRunning(); err != nil {
		return err
	}
	if callerVMPL != VMPL0 {
		return &Fault{Kind: FaultGP, VMPL: callerVMPL, Phys: phys, Why: "PVALIDATE requires VMPL0"}
	}
	e := &m.rmp[pi]
	if !e.Assigned {
		return &Fault{Kind: FaultNPF, VMPL: callerVMPL, Phys: phys, Why: "PVALIDATE on unassigned page"}
	}
	if e.Validated == validate {
		return fmt.Errorf("snp: PVALIDATE no-op (already validated=%v) at %#x", validate, PageBase(phys))
	}
	e.Validated = validate
	if validate {
		m.validatedCount++
		// A freshly validated page becomes fully accessible to VMPL0 and
		// inherits no permissions at lower levels until granted.
		e.Perms = [NumVMPLs]Perm{VMPL0: PermAll}
		// Newly accepted memory reads as zero. Only a page that was
		// ever written needs its bytes cleared; the virtual cost of the
		// cold touch is charged by the boot sweep either way.
		m.scrub(pi)
		if m.isPTPage(pi) {
			// The scrub may just have rewritten PTE bytes behind the
			// walker's back.
			m.invalidatePTPage(pi)
		}
	} else {
		m.validatedCount--
		e.Perms = [NumVMPLs]Perm{}
	}
	m.rmpFlushTLB() // validated state feeds every cached RMP verdict
	m.clock.Charge(CostPVALIDATE, CyclesPVALIDATE)
	m.trace.PValidates++
	return nil
}

// HVAssignPage is the hypervisor-side RMP update that donates a page to the
// guest (private, encrypted). The guest must PVALIDATE it before use.
func (m *Machine) HVAssignPage(phys uint64) error {
	pi, err := m.pageIndex(phys)
	if err != nil {
		return err
	}
	e := &m.rmp[pi]
	if e.Assigned {
		return fmt.Errorf("snp: page %#x already assigned", PageBase(phys))
	}
	*e = RMPEntry{Assigned: true}
	m.rmpFlushTLB() // page-state change invalidates cached RMP verdicts
	return nil
}

// HVReclaimPage is the hypervisor-side RMP update that takes a page back
// from the guest (e.g. to convert it to a shared bounce buffer). Hardware
// refuses to reclaim validated pages: the guest must first rescind its
// validation (via VeilMon under Veil), closing the remap attack window.
func (m *Machine) HVReclaimPage(phys uint64) error {
	pi, err := m.pageIndex(phys)
	if err != nil {
		return err
	}
	e := &m.rmp[pi]
	if !e.Assigned {
		return fmt.Errorf("snp: page %#x not assigned", PageBase(phys))
	}
	if e.Validated {
		return fmt.Errorf("snp: cannot reclaim validated page %#x", PageBase(phys))
	}
	if e.VMSA {
		return fmt.Errorf("snp: cannot reclaim VMSA page %#x", PageBase(phys))
	}
	*e = RMPEntry{}
	m.rmpFlushTLB() // page-state change invalidates cached RMP verdicts
	return nil
}

package hv

import (
	"fmt"
	"slices"

	"veil/internal/snp"
)

// chargeExit accounts one VMGEXIT (full VMSA state save + host dispatch).
func (h *Hypervisor) chargeExit() {
	h.m.Clock().Charge(snp.CostVMGEXIT, snp.CyclesVMGEXITSave)
	h.m.ObserveVMGEXIT()
}

// chargeEnter accounts one VMENTER (VMSA state restore).
func (h *Hypervisor) chargeEnter() {
	h.m.Clock().Charge(snp.CostVMENTER, snp.CyclesVMENTERRestore)
	h.m.ObserveVMENTER()
}

// VMGEXIT is the guest's non-automatic exit: the exiting VCPU's GHCB (found
// through its MSR) carries the request (Fig. 1). The call returns when the
// exiting instance is resumed — for a domain switch that is after the
// target domain ran and switched back, so the Go call structure mirrors the
// paper's Fig. 3 sequence exactly.
func (h *Hypervisor) VMGEXIT(vcpuID int) error {
	if h.m.Halted() != nil {
		return snp.ErrHalted
	}
	c := h.running(vcpuID)
	if c == nil {
		return fmt.Errorf("hv: VMGEXIT from unknown VCPU %d", vcpuID)
	}
	h.m.SetObsVCPU(vcpuID)
	start := h.m.Clock().Cycles()
	h.chargeExit()
	ghcbPhys, ok := h.m.ReadGHCBMSR(vcpuID)
	if !ok {
		h.m.ObserveDenied(snp.DeniedGHCB, uint64(vcpuID))
		return ErrNoGHCB
	}
	if h.exitDepth == len(h.exitGHCBs) {
		h.exitGHCBs = append(h.exitGHCBs, new(snp.GHCB))
	}
	g := h.exitGHCBs[h.exitDepth]
	if err := h.m.HVReadGHCB(ghcbPhys, g); err != nil {
		// The "GHCB" is a guest-private page: the host sees ciphertext.
		h.m.ObserveDenied(snp.DeniedGHCB, ghcbPhys)
		return fmt.Errorf("%w: %v", ErrNoGHCB, err)
	}
	h.exitDepth++
	defer func() { h.exitDepth-- }()

	// The round trip is the causal root of everything the exit causes:
	// domain switches, RMP instructions, service dispatches and faults all
	// nest under this span until ObserveRoundTrip closes it.
	rt := h.m.BeginSpan()

	var err error
	switch g.ExitCode {
	case ExitDomainSwitch:
		err = h.serveDomainSwitch(c, ghcbPhys, g, snp.ReasonService)
	case ExitRingDoorbell:
		err = h.serveDomainSwitch(c, ghcbPhys, g, snp.ReasonDoorbell)
	case ExitRegisterVMSA:
		err = h.serveRegisterVMSA(g)
		h.chargeEnter()
	case ExitStartVCPU:
		err = h.serveStartVCPU(g)
		h.chargeEnter()
	case ExitPageState:
		err = h.servePageState(ghcbPhys, g)
		h.chargeEnter()
	case ExitGuestRequest:
		err = h.serveGuestRequest(c, ghcbPhys, g)
		h.chargeEnter()
	case ExitIO:
		// Device I/O is serviced host-side; contents are opaque to the
		// model. The exit/enter cost is what matters.
		h.chargeEnter()
	default:
		err = fmt.Errorf("hv: unknown exit code %#x", g.ExitCode)
		h.chargeEnter()
	}
	h.m.ObserveRoundTrip(g.ExitCode, start, rt)
	return err
}

// serveDomainSwitch relays a domain switch (§5.2): resume the same VCPU
// from the target domain's VMSA, and when that domain exits back, resume
// the caller. Each direction costs one full save/restore pair — the 7135
// cycles measured in §9.1. reason tells the target what to do with the
// entry (serve one IDCB request, or drain its doorbell ring).
func (h *Hypervisor) serveDomainSwitch(c *vcpu, ghcbPhys uint64, g *snp.GHCB, reason snp.Reason) error {
	tag := DomainTag(g.ExitInfo1)
	if pol, exists := h.ghcbPolicy[ghcbPhys]; exists && !slices.Contains(pol, tag) {
		// Refusing leaves the guest stuck; the caller observes a crash
		// (§6.2 "the CVM crashes on an attempted domain switch").
		h.m.ObserveDenied(snp.DeniedPolicy, uint64(tag))
		return ErrPolicy
	}
	b, ok := c.binding(tag)
	if !ok {
		return fmt.Errorf("hv: VCPU %d has no domain %d", c.id, tag)
	}
	caller := c.currentVMSA

	// The from/to privilege levels label the switch span. They come from
	// the RMP entries of the two VMSA pages, as the hardware's own record
	// of what each page runs at; a page that no longer holds a VMSA
	// labels its side VMPL0 rather than aborting the switch.
	fromVMPL, toVMPL := h.m.VMSAVMPL(caller), h.m.VMSAVMPL(b.vmsaPhys)

	outStart := h.m.Clock().Cycles() - snp.CyclesVMGEXITSave // span includes the exit half
	c.currentVMSA = b.vmsaPhys
	h.chargeEnter()
	h.m.ObserveDomainSwitch(fromVMPL, toVMPL, outStart)
	err := h.m.VMRUN(c.id, b.vmsaPhys, reason)

	// Target exits; caller resumes (even on error, so halts propagate
	// with correct accounting).
	backStart := h.m.Clock().Cycles()
	h.chargeExit()
	c.currentVMSA = caller
	h.chargeEnter()
	h.m.ObserveDomainSwitch(toVMPL, fromVMPL, backStart)
	return err
}

// serveRegisterVMSA records a freshly created domain VMSA under a tag so
// later switch requests can name it, on the VCPU the VMSA names. It keeps
// no security state: the RMPADJUST privilege rules decided whether the
// VMSA exists, and VMRUN decides what it runs.
func (h *Hypervisor) serveRegisterVMSA(g *snp.GHCB) error {
	vmsaPhys, tag := g.ExitInfo1, DomainTag(g.ExitInfo2)
	v, err := h.m.VMSAAt(vmsaPhys)
	if err != nil {
		return fmt.Errorf("hv: register VMSA: %w", err)
	}
	h.vcpus[v.VCPUID].bind(binding{tag: tag, vmsaPhys: vmsaPhys})
	return nil
}

// serveStartVCPU begins executing a new VCPU instance (AP boot/hotplug,
// §5.3) from the VMSA in ExitInfo1.
func (h *Hypervisor) serveStartVCPU(g *snp.GHCB) error {
	vmsaPhys := g.ExitInfo1
	v, err := h.m.VMSAAt(vmsaPhys)
	if err != nil {
		return fmt.Errorf("hv: start VCPU: %w", err)
	}
	c := &h.vcpus[v.VCPUID]
	if c.started {
		return fmt.Errorf("hv: VCPU %d already running", v.VCPUID)
	}
	c.currentVMSA, c.started = vmsaPhys, true
	h.m.SetObsVCPU(v.VCPUID)
	h.chargeEnter()
	err = h.m.VMRUN(c.id, vmsaPhys, snp.ReasonBoot)
	h.chargeExit()
	return err
}

// servePageState performs page-state changes: assigning pages to the guest
// or reclaiming shared ones. The reply code lands in SwScratch.
func (h *Hypervisor) servePageState(ghcbPhys uint64, g *snp.GHCB) error {
	read := min(g.SwScratch, snp.GHCBPayloadSize) // payload bytes decoded from the page
	phys := g.ExitInfo1
	count := g.ExitInfo2 >> 1
	assign := g.ExitInfo2&1 == 1
	var failed uint64
	for i := uint64(0); i < count; i++ {
		p := phys + i*snp.PageSize
		var err error
		if assign {
			err = h.m.HVAssignPage(p)
		} else {
			err = h.m.HVReclaimPage(p)
		}
		if err != nil {
			failed++
		}
	}
	// The reply's SwScratch is the failure count, so that many payload
	// bytes cross back. Past the ones this exit decoded they must be
	// zero: g is reused across exits, and an earlier exit's bytes must
	// never reach the page.
	if sent := min(failed, snp.GHCBPayloadSize); sent > read {
		clear(g.Payload[read:sent])
	}
	g.SwScratch = failed
	h.m.ObservePageState(phys, count, assign)
	return h.m.HVWriteGHCB(ghcbPhys, g)
}

// serveGuestRequest relays an attestation report request to the PSP. The
// requester's VMPL comes from the hardware (the exiting VMSA), not from the
// request — this is what lets remote users distinguish a report minted by
// VeilMon at VMPL0 from one minted by a compromised OS at VMPL3 (§5.1).
func (h *Hypervisor) serveGuestRequest(c *vcpu, ghcbPhys uint64, g *snp.GHCB) error {
	v, err := h.m.VMSAAt(c.currentVMSA)
	if err != nil {
		return fmt.Errorf("hv: guest request: %w", err)
	}
	if h.psp == nil {
		return fmt.Errorf("hv: no PSP configured")
	}
	dataLen := int(g.SwScratch)
	if dataLen < 0 || dataLen > len(g.Payload) {
		return fmt.Errorf("hv: guest request: bad report data length %d", dataLen)
	}
	// The signer gets its own copy of the report data, so the exit's GHCB
	// never escapes VMGEXIT's stack.
	data := append([]byte(nil), g.Payload[:dataLen]...)
	report, err := h.psp.SignReport(h.measurement, v.VMPL, data)
	if err != nil {
		return fmt.Errorf("hv: PSP: %w", err)
	}
	if len(report) > len(g.Payload) {
		return fmt.Errorf("hv: report too large (%d bytes)", len(report))
	}
	g.SwScratch = uint64(len(report))
	copy(g.Payload[:], report)
	return h.m.HVWriteGHCB(ghcbPhys, g)
}

// VMCall models a plain exit on a non-SNP VM (~1100 cycles on the paper's
// machine); it exists for the §9.1 comparison benchmark.
func (h *Hypervisor) VMCall(vcpuID int) {
	h.m.SetObsVCPU(vcpuID)
	h.m.Clock().Charge(snp.CostVMCALL, snp.CyclesVMCALL)
	h.m.ObserveVMCall()
}

// InjectInterrupt delivers a hardware interrupt to the VCPU. This is an
// automatic exit: no guest state crosses to the host. Under Veil's
// instructions the hypervisor resumes Dom-UNT to run the OS handler; in the
// hostile RefuseRelay mode it re-enters the interrupted domain instead,
// which — if that domain is an enclave — faults on the unreachable OS
// handler and halts the CVM (Table 2 "Refuse interrupt relay").
func (h *Hypervisor) InjectInterrupt(vcpuID int) error {
	if h.m.Halted() != nil {
		return snp.ErrHalted
	}
	mode := h.interruptMode
	if h.intrModeChooser != nil {
		mode = h.intrModeChooser(vcpuID)
	}
	switch mode {
	case DropInterrupt:
		// Hostile: the host never delivers the interrupt. Nothing runs in
		// the guest and no cycles are charged; whoever was waiting on the
		// wake-up must detect the loss themselves.
		return nil
	case MisrouteVCPU:
		// Hostile: deliver to the lowest-numbered other started VCPU. The
		// relay below then proceeds normally — just on the wrong VCPU.
		vcpuID = h.otherStartedVCPU(vcpuID)
	}
	c := h.running(vcpuID)
	if c == nil {
		return fmt.Errorf("hv: interrupt for unknown VCPU %d", vcpuID)
	}
	h.m.SetObsVCPU(vcpuID)
	h.m.Clock().Charge(snp.CostInterrupt, snp.CyclesInterrupt)
	h.m.ObserveInterrupt()
	h.chargeExit()
	interrupted := c.currentVMSA

	// Hostile (or unconfigured): force handling in the interrupted context.
	target := interrupted
	if mode == RelayToUntrusted && h.hasIntrTarget {
		b, ok := c.binding(h.interruptTarget)
		if !ok {
			return fmt.Errorf("hv: no interrupt target domain on VCPU %d", c.id)
		}
		target = b.vmsaPhys
	}

	c.currentVMSA = target
	h.chargeEnter()
	err := h.m.VMRUN(c.id, target, snp.ReasonInterrupt)
	h.chargeExit()
	c.currentVMSA = interrupted
	h.chargeEnter()
	return err
}

// otherStartedVCPU returns the lowest-numbered started VCPU other than id,
// or id itself when it is the only one. The VCPUs are walked in id order,
// so hostile misrouting is as deterministic as honest delivery.
func (h *Hypervisor) otherStartedVCPU(id int) int {
	for i := range h.vcpus {
		if h.vcpus[i].started && i != id {
			return i
		}
	}
	return id
}

// AttemptRebind is a hostile host pointing one of a VCPU's domain tags at
// any page: the tag table is its own. VMRUN refuses the next switch to tag
// unless the page is a VMSA of that VCPU.
func (h *Hypervisor) AttemptRebind(vcpuID int, tag DomainTag, vmsaPhys uint64) error {
	c := h.vcpuAt(vcpuID)
	if c == nil {
		return fmt.Errorf("hv: rebind on unknown VCPU %d", vcpuID)
	}
	c.bind(binding{tag: tag, vmsaPhys: vmsaPhys})
	return nil
}

// AttemptVMSATamper is the Table 2 hypervisor attack: try to overwrite a
// saved enclave register state. SEV-SNP keeps VMSAs in guest-assigned
// memory, so the write is blocked; the returned error is the proof.
func (h *Hypervisor) AttemptVMSATamper(vmsaPhys uint64) error {
	evil := make([]byte, 8) // would-be rip overwrite
	return h.m.HVWritePhys(vmsaPhys, evil)
}

package core

import (
	"fmt"

	"veil/internal/hv"
	"veil/internal/snp"
)

// Additional monitor operations (beyond OpPValidate/OpBootAP).
const (
	// OpAttest asks VeilMon to request a signed attestation report from
	// the PSP with the monitor's channel public key as report data. Any
	// domain may trigger it — the report is only useful to the remote
	// user, and only VeilMon's VMPL0 context can mint it (§5.1).
	OpAttest uint8 = 3
	// OpUserChannel delivers the remote user's X25519 public key so the
	// monitor can derive the shared secure channel.
	OpUserChannel uint8 = 4
	// OpUserMessage carries one sealed user→monitor message; the reply
	// payload is the sealed response. The OS relays these blindly (it is
	// the untrusted network path of §6.3).
	OpUserMessage uint8 = 5
)

// SecureHandler processes decrypted user messages arriving over the
// monitor's secure channel. The first byte of each message selects the
// service (SvcLOG for log retrieval, SvcENC for enclave measurements, ...);
// the handler receives the rest.
type SecureHandler func(msg []byte) ([]byte, error)

// RegisterSecureService installs the secure-channel handler for a service.
func (mon *Monitor) RegisterSecureService(svc uint8, h SecureHandler) {
	if mon.secureHandlers == nil {
		mon.secureHandlers = make(map[uint8]SecureHandler)
	}
	mon.secureHandlers[svc] = h
}

// dispatchMon serves one Dom-MON entry: read the request from the OS↔Mon
// IDCB, sanitize, act, respond (§5.2, Fig. 3).
func (mon *Monitor) dispatchMon(vcpu int) error {
	idcb := mon.lay.MonIDCB(vcpu)
	req, stage, err := ReadIDCBRequestInto(mon.m, snp.VMPL0, idcb, mon.reqStage)
	mon.reqStage = stage
	if err != nil {
		return err
	}
	start := mon.m.Clock().Cycles()
	ref := mon.m.BeginSpan()
	var resp Response
	if req.Svc != SvcMon {
		resp = Response{Status: StatusError}
	} else {
		resp = mon.handleMonOp(vcpu, req)
	}
	mon.m.ObserveService(snp.VMPL0, uint64(req.Svc), uint64(req.Op), start, ref)
	return WriteIDCBResponse(mon.m, snp.VMPL0, idcb, resp)
}

func (mon *Monitor) handleMonOp(vcpu int, req Request) Response {
	switch req.Op {
	case OpPValidate:
		d := &dec{b: req.Payload}
		phys := d.u64()
		validate := d.u8() == 1
		if d.err != nil {
			return Response{Status: StatusError}
		}
		return mon.servePValidate(phys, validate)
	case OpBootAP:
		d := &dec{b: req.Payload}
		ap := int(d.u32())
		if d.err != nil {
			return Response{Status: StatusError}
		}
		return mon.serveBootAP(ap)
	case OpAttest:
		return mon.serveAttest(vcpu)
	case OpUserChannel:
		if err := mon.EstablishUserChannel(req.Payload); err != nil {
			return Response{Status: StatusError}
		}
		return Response{Status: StatusOK}
	case OpUserMessage:
		return mon.serveUserMessage(req.Payload)
	}
	return Response{Status: StatusError}
}

// servePValidate is the §5.3 page-state delegation: check the OS-supplied
// physical address against the protected-region registry, then execute the
// instruction the OS architecturally cannot.
func (mon *Monitor) servePValidate(phys uint64, validate bool) Response {
	if err := mon.Sanitize(phys, snp.PageSize); err != nil {
		mon.m.ObserveDenied(snp.DeniedSanitize, snp.PageBase(phys))
		return Response{Status: StatusDenied}
	}
	if err := mon.m.PValidate(snp.VMPL0, phys, validate); err != nil {
		return Response{Status: StatusError}
	}
	if validate {
		// A freshly validated page starts VMPL0-only. The sanitizer let
		// only an unprotected kernel-region page through, which is data:
		// restore the data grants so the OS can use it.
		page := [1]uint64{phys}
		if err := mon.m.RunRMP(&snp.RMPRun{Caller: snp.VMPL0, Pages: page[:], Grants: kernelDataGrants[:]}); err != nil {
			return Response{Status: StatusError}
		}
	}
	return Response{Status: StatusOK}
}

// serveBootAP is the §5.3 VCPU-boot delegation: create the Dom-UNT VMSA for
// the new VCPU (only VMPL0 can), holding its Dom-UNT context, and ask the
// hypervisor to start it.
func (mon *Monitor) serveBootAP(ap int) Response {
	if ap <= 0 || ap >= mon.lay.VCPUs {
		return Response{Status: StatusError}
	}
	if _, exists := mon.replicas[ap][DomUNT]; exists {
		return Response{Status: StatusError} // already booted
	}
	untVMSA, err := mon.createReplica(ap, DomUNT, snp.VMSA{
		VMPL: snp.VMPL3, CPL: snp.CPL0,
	}, mon.untCtx(ap))
	if err != nil {
		return Response{Status: StatusError}
	}
	g := &snp.GHCB{ExitCode: hv.ExitStartVCPU, ExitInfo1: untVMSA}
	if err := mon.hypercall(0, g); err != nil {
		return Response{Status: StatusError}
	}
	return Response{Status: StatusOK}
}

// serveAttest requests a PSP report carrying the monitor's channel key.
func (mon *Monitor) serveAttest(vcpu int) Response {
	report, err := mon.AttestationReport(vcpu)
	if err != nil {
		return Response{Status: StatusError}
	}
	return Response{Status: StatusOK, Payload: report}
}

// serveUserMessage opens a sealed user message, routes it to the addressed
// service's secure handler, and seals the reply.
func (mon *Monitor) serveUserMessage(sealed []byte) Response {
	if mon.userCh == nil {
		return Response{Status: StatusError}
	}
	msg, err := mon.userCh.Open(sealed)
	if err != nil {
		mon.m.ObserveDenied(snp.DeniedSanitize, uint64(len(sealed)))
		return Response{Status: StatusDenied}
	}
	if len(msg) == 0 {
		return Response{Status: StatusError}
	}
	h, ok := mon.secureHandlers[msg[0]]
	if !ok {
		return Response{Status: StatusError}
	}
	reply, err := h(msg[1:])
	if err != nil {
		return Response{Status: StatusError}
	}
	sealedReply, err := mon.userCh.Seal(reply)
	if err != nil {
		return Response{Status: StatusError}
	}
	return Response{Status: StatusOK, Payload: sealedReply}
}

// dispatchSrv serves one Dom-SRV entry: requests from the OS to protected
// services through the OS↔Srv IDCB.
func (mon *Monitor) dispatchSrv(vcpu int) error {
	idcb := mon.lay.SrvIDCB(vcpu)
	req, stage, err := ReadIDCBRequestInto(mon.m, snp.VMPL1, idcb, mon.reqStage)
	mon.reqStage = stage
	if err != nil {
		return err
	}
	start := mon.m.Clock().Cycles()
	ref := mon.m.BeginSpan()
	var resp Response
	if h := mon.services[req.Svc]; h != nil {
		status, payload := h(vcpu, req.Op, req.Payload)
		resp = Response{Status: status, Payload: payload}
	} else {
		resp = Response{Status: StatusError}
	}
	mon.m.ObserveService(snp.VMPL1, uint64(req.Svc), uint64(req.Op), start, ref)
	return WriteIDCBResponse(mon.m, snp.VMPL1, idcb, resp)
}

// AttestationReport asks the PSP (via a guest-request hypercall from the
// monitor's context) for a report binding the monitor's channel public key.
func (mon *Monitor) AttestationReport(vcpu int) ([]byte, error) {
	if mon.kp == nil {
		return nil, fmt.Errorf("core: monitor keys not initialized")
	}
	return mon.attestationReport(vcpu, mon.kp.PublicBytes())
}

// ServiceAttestationReport mints a report binding caller-chosen data on
// behalf of a protected service. Services run in Dom-SRV; only VeilMon's
// VMPL0 context can issue the guest request, so the call costs a full
// SRV→MON→SRV switch pair — the same delegation shape as enclave VMSA
// creation. VeilS-Channel uses it to bind session keys and handshake
// transcripts into reports.
func (mon *Monitor) ServiceAttestationReport(vcpu int, data []byte) ([]byte, error) {
	monVMSA, ok := mon.replicas[vcpu][DomMON]
	if !ok {
		return nil, fmt.Errorf("core: VCPU %d has no Dom-MON replica", vcpu)
	}
	mon.ChargeServiceSwitch()
	// The switch is architectural, not just an accounting entry: the guest
	// request is issued while the VCPU executes the Dom-MON instance, so
	// the PSP sees VMPL0 from the exiting VMSA. Restore the caller's
	// instance afterwards — the second half of the charged round trip.
	prev, _ := mon.hv.CurrentVMSA(vcpu)
	if err := mon.hv.Resume(vcpu, monVMSA); err != nil {
		return nil, err
	}
	report, err := mon.attestationReport(vcpu, data)
	if prev != 0 {
		if rerr := mon.hv.Resume(vcpu, prev); err == nil && rerr != nil {
			err = rerr
		}
	}
	return report, err
}

// attestationReport issues the guest-request hypercall from the monitor's
// context with the given report data. The PSP stamps the requester VMPL
// from the exiting VMSA — VMPL0 here — never from the request.
func (mon *Monitor) attestationReport(vcpu int, data []byte) ([]byte, error) {
	if len(data) > snp.GHCBPayloadSize {
		return nil, fmt.Errorf("core: report data %d bytes too large", len(data))
	}
	g := &snp.GHCB{ExitCode: hv.ExitGuestRequest, SwScratch: uint64(len(data))}
	copy(g.Payload[:], data)
	if err := mon.hypercall(vcpu, g); err != nil {
		return nil, err
	}
	n := g.SwScratch
	if n == 0 || n > uint64(len(g.Payload)) {
		return nil, fmt.Errorf("core: bad report length %d", n)
	}
	out := make([]byte, n)
	copy(out, g.Payload[:n])
	return out, nil
}

// EstablishUserChannel derives the AES-GCM channel with the remote user.
func (mon *Monitor) EstablishUserChannel(userPub []byte) error {
	if mon.kp == nil {
		return fmt.Errorf("core: monitor keys not initialized")
	}
	ch, err := mon.kp.OpenChannel(userPub, true)
	if err != nil {
		return err
	}
	mon.userCh = ch
	return nil
}

// ChargeServiceSwitch accounts a Dom-SRV↔Dom-MON (or service-internal)
// domain-switch round trip: services occasionally need VMPL0 operations
// (e.g. enclave VMSA creation) that cost two full switches (§5.2).
func (mon *Monitor) ChargeServiceSwitch() {
	m, c := mon.m, mon.m.Clock()
	// Two full switches: out to VMPL0 and back. Observing each direction
	// separately keeps the trace counters identical to charging in bulk
	// while giving the event timeline two correctly-spanned switches.
	for i := 0; i < 2; i++ {
		start := c.Cycles()
		c.Charge(snp.CostVMGEXIT, snp.CyclesVMGEXITSave)
		m.ObserveVMGEXIT()
		c.Charge(snp.CostVMENTER, snp.CyclesVMENTERRestore)
		m.ObserveVMENTER()
		from, to := snp.VMPL1, snp.VMPL0
		if i == 1 {
			from, to = snp.VMPL0, snp.VMPL1
		}
		m.ObserveDomainSwitch(from, to, start)
	}
}

// CreateEnclaveVCPU creates a Dom-ENC VMSA for an enclave thread on one
// VCPU (§6.2): a VMPL2/CPL3 replica whose page-table root is the enclave's
// protected clone. tag is the per-enclave domain tag. Called by VeilS-Enc
// (Dom-SRV), so it charges the SRV→MON switch.
func (mon *Monitor) CreateEnclaveVCPU(vcpu int, tag uint64, cr3 uint64, rip uint64, ctx snp.Context) (uint64, error) {
	mon.ChargeServiceSwitch()
	return mon.createReplica(vcpu, tag, snp.VMSA{
		VMPL: snp.VMPL2, CPL: snp.CPL3, CR3: cr3, RIP: rip,
	}, ctx)
}

// DestroyEnclaveVCPU tears down an enclave replica.
func (mon *Monitor) DestroyEnclaveVCPU(vcpu int, tag uint64) error {
	mon.ChargeServiceSwitch()
	phys, ok := mon.replicas[vcpu][tag]
	if !ok {
		return fmt.Errorf("core: no replica for vcpu %d tag %d", vcpu, tag)
	}
	if err := mon.m.DestroyVMSA(snp.VMPL0, phys); err != nil {
		return err
	}
	delete(mon.replicas[vcpu], tag)
	return mon.heap.Free(phys)
}

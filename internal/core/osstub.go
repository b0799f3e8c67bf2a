package core

import (
	"errors"
	"fmt"

	"veil/internal/hv"
	"veil/internal/snp"
)

// OSStub is the operating-system side of Veil's kernel patch: ~560 lines of
// Linux changes in the paper that write delegation requests into IDCBs and
// trigger hypervisor-relayed domain switches. It runs at Dom-UNT (VMPL3,
// CPL0); every memory access and switch it performs is subject to the same
// enforcement as any other OS code.
//
// The stub satisfies the kernel package's Hooks interface.
type OSStub struct {
	m    *snp.Machine
	hyp  *hv.Hypervisor
	lay  Layout
	vcpu int
	// kernelGHCB, ringSub, ringComp and ringPay are this VCPU's kernel
	// GHCB and ring pages (ringPay indexed by slot), fixed by the layout
	// and computed once at construction.
	kernelGHCB, ringSub, ringComp uint64
	ringPay                       [RingSlots]uint64

	// disp, when set, receives doorbells from DoorbellAsync instead of the
	// ring being drained synchronously (the SMP scheduler's deferred-drain
	// queue). irq mirrors the ring header's interrupt-enable flag.
	disp Dispatcher
	irq  bool
	// doorbell is s.Doorbell, bound once: a method value taken per
	// DoorbellAsync would allocate a closure per batch.
	doorbell func() error
	// ghcb is the one GHCB the stub's domain switches and doorbells are
	// built in (snp.GHCB.Exit): none carries a payload, so nothing needs
	// zero-filling per exit.
	ghcb snp.GHCB

	// netTx, when set, transmits VeilS-Channel frames onto the fleet
	// fabric (the OS as untrusted NIC driver; see osstub_net.go).
	netTx func(dst int, frame []byte) error
	// chn is the machine's VeilS-Channel session view (see osstub_net.go),
	// shared by every stub of the machine after ShareChnView.
	chn *chnView

	// reqEnc encodes every request payload the stub builds and respStage
	// receives every response payload. WriteIDCBRequest copies the request
	// into the IDCB and each stub method consumes its response before the
	// next call, so one buffer of each per stub suffices.
	reqEnc    enc
	respStage []byte

	// submitTS remembers the virtual cycle each in-flight slot was
	// submitted at; Poll reports submit→complete latency from it to the
	// machine's observability layer. latNext is the first sequence number
	// whose latency has not been observed yet — a request polled twice
	// (WaitIntr then a later collect pass) is counted once, at the first
	// successful poll. Pure instrumentation: neither field affects the
	// protocol or the cycle ledger.
	submitTS [RingSlots]uint64
	latNext  uint32
}

// NewOSStub creates the kernel-side stub for one VCPU.
func NewOSStub(mon *Monitor, vcpu int) *OSStub {
	lay := mon.lay
	s := &OSStub{m: mon.m, hyp: mon.hv, lay: lay, vcpu: vcpu, chn: newChnView(),
		kernelGHCB: lay.KernelGHCB(vcpu), ringSub: lay.RingSub(vcpu), ringComp: lay.RingComp(vcpu)}
	for slot := range s.ringPay {
		s.ringPay[slot] = lay.RingPayload(vcpu, slot)
	}
	s.doorbell = s.Doorbell
	return s
}

// ErrDenied is returned when VeilMon's sanitizer refuses an OS request
// (Table 1, "OS request sanitized").
var ErrDenied = errors.New("core: request denied by VeilMon")

func statusErr(r Response) error {
	switch r.Status {
	case StatusOK:
		return nil
	case StatusDenied:
		return ErrDenied
	default:
		return fmt.Errorf("core: request failed (status %d)", r.Status)
	}
}

// call writes the request into the IDCB for the target domain, requests a
// domain switch through the kernel GHCB, and reads the response back
// (Fig. 3's six steps). The kernel re-points the GHCB MSR at its own GHCB
// first (it may currently reference a scheduled process's user GHCB) and
// restores it afterwards. The response payload aliases the stub's
// response stage: it is valid until the stub's next call.
func (s *OSStub) call(idcb uint64, dom uint64, req Request) (Response, error) {
	if err := WriteIDCBRequest(s.m, snp.VMPL3, snp.CPL0, idcb, req); err != nil {
		return Response{}, err
	}
	s.m.Clock().Charge(snp.CostPageCopy, uint64(len(req.Payload))*snp.CyclesPageCopy4K/snp.PageSize+1)
	old, hadMSR := s.m.ReadGHCBMSR(s.vcpu)
	if err := s.m.WriteGHCBMSR(s.vcpu, snp.CPL0, s.kernelGHCB); err != nil {
		return Response{}, err
	}
	g := s.ghcb.Exit(hv.ExitDomainSwitch, dom)
	callErr := s.hyp.GuestCall(s.vcpu, snp.VMPL3, snp.CPL0, s.kernelGHCB, g)
	if hadMSR && old != s.kernelGHCB {
		if err := s.m.WriteGHCBMSR(s.vcpu, snp.CPL0, old); err != nil && callErr == nil {
			callErr = err
		}
	}
	if callErr != nil {
		return Response{}, callErr
	}
	resp, stage, err := ReadIDCBResponseInto(s.m, snp.VMPL3, snp.CPL0, idcb, s.respStage)
	s.respStage = stage
	if err != nil {
		return Response{}, err
	}
	s.m.Clock().Charge(snp.CostPageCopy, uint64(len(resp.Payload))*snp.CyclesPageCopy4K/snp.PageSize+1)
	return resp, nil
}

// CallMon issues a request to VeilMon (Dom-MON). The response payload is
// the caller's.
func (s *OSStub) CallMon(req Request) (Response, error) {
	return owned(s.callMon(req))
}

// CallSrv issues a request to the protected services (Dom-SRV). The
// response payload is the caller's.
func (s *OSStub) CallSrv(req Request) (Response, error) {
	return owned(s.callSrv(req))
}

// callMon and callSrv are CallMon and CallSrv for the stub's own methods:
// the response payload aliases the response stage.
func (s *OSStub) callMon(req Request) (Response, error) {
	return s.call(s.lay.MonIDCB(s.vcpu), DomMON, req)
}

func (s *OSStub) callSrv(req Request) (Response, error) {
	return s.call(s.lay.SrvIDCB(s.vcpu), DomSRV, req)
}

// owned copies a staged response payload out for the caller to keep.
func owned(resp Response, err error) (Response, error) {
	if err != nil {
		return Response{}, err
	}
	p := make([]byte, len(resp.Payload))
	copy(p, resp.Payload)
	resp.Payload = p
	return resp, nil
}

// encoder returns the stub's request encoder, emptied.
func (s *OSStub) encoder() *enc {
	s.reqEnc.b = s.reqEnc.b[:0]
	return &s.reqEnc
}

// PValidate delegates a page-state change (§5.3).
func (s *OSStub) PValidate(phys uint64, validate bool) error {
	var v uint8
	if validate {
		v = 1
	}
	e := s.encoder().u64(phys).u8(v)
	resp, err := s.callMon(Request{Svc: SvcMon, Op: OpPValidate, Payload: e.b})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// BootAP delegates VCPU boot (§5.3): VeilMon creates the AP's Dom-UNT
// VMSA, which runs the machine's Dom-UNT context, and starts it.
func (s *OSStub) BootAP(vcpuID int) error {
	e := s.encoder().u32(uint32(vcpuID))
	resp, err := s.callMon(Request{Svc: SvcMon, Op: OpBootAP, Payload: e.b})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// LoadModule streams the module image to VeilS-Kci and asks it to verify
// and install into the kernel-allocated frames (§6.1).
func (s *OSStub) LoadModule(image []byte, destFrames []uint64) (int, error) {
	const chunk = IDCBPayloadMax
	for off := 0; off < len(image); off += chunk {
		end := off + chunk
		if end > len(image) {
			end = len(image)
		}
		resp, err := s.callSrv(Request{Svc: SvcKCI, Op: OpKciStage, Payload: image[off:end]})
		if err != nil {
			return 0, err
		}
		if err := statusErr(resp); err != nil {
			return 0, err
		}
	}
	e := s.encoder()
	e.u32(uint32(len(destFrames)))
	for _, f := range destFrames {
		e.u64(f)
	}
	resp, err := s.callSrv(Request{Svc: SvcKCI, Op: OpKciLoad, Payload: e.b})
	if err != nil {
		return 0, err
	}
	if err := statusErr(resp); err != nil {
		return 0, err
	}
	d := &dec{b: resp.Payload}
	handle := int(d.u32())
	if d.err != nil {
		return 0, d.err
	}
	return handle, nil
}

// FreeModule unloads a module through VeilS-Kci.
func (s *OSStub) FreeModule(handle int) error {
	e := s.encoder().u32(uint32(handle))
	resp, err := s.callSrv(Request{Svc: SvcKCI, Op: OpKciFree, Payload: e.b})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

// AuditEmit sends one finalized audit record to VeilS-Log before the
// audited event executes (§6.3).
func (s *OSStub) AuditEmit(rec []byte) error {
	if len(rec) > IDCBPayloadMax {
		rec = rec[:IDCBPayloadMax]
	}
	resp, err := s.callSrv(Request{Svc: SvcLOG, Op: OpLogAppend, Payload: rec})
	if err != nil {
		return err
	}
	return statusErr(resp)
}

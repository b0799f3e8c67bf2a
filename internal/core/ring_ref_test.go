package core

import (
	"encoding/binary"
	"fmt"

	"veil/internal/hv"
	"veil/internal/snp"
)

// The per-field ring protocol: one snp.Machine.Span per header word,
// descriptor and completion slot. It is the reference FuzzRingDrain holds
// the span-per-page SubmitSrv, drainRing and Poll to: the same bytes, at
// the same VMPL, CPL and access, on the same pages, in the same order.

// writeRingDesc stores a descriptor into its slot on the submission page.
func writeRingDesc(m *snp.Machine, vmpl snp.VMPL, cpl snp.CPL, subPage uint64, d RingDesc) error {
	slot := subPage + ringHdrLen + uint64(d.Seq%RingSlots)*ringDescLen
	b, err := m.Span(vmpl, cpl, slot, ringDescLen, snp.AccessWrite)
	if err != nil {
		return err
	}
	clear(b)
	binary.LittleEndian.PutUint32(b[0:], d.Seq)
	b[4] = d.Svc
	b[5] = d.Op
	binary.LittleEndian.PutUint16(b[6:], d.Flags)
	binary.LittleEndian.PutUint64(b[8:], d.ReqGPA)
	binary.LittleEndian.PutUint32(b[16:], d.ReqLen)
	binary.LittleEndian.PutUint32(b[20:], d.RespCap)
	binary.LittleEndian.PutUint64(b[24:], d.RespGPA)
	return nil
}

// writeRingCompletion stores a completion slot.
func writeRingCompletion(m *snp.Machine, vmpl snp.VMPL, cpl snp.CPL, compPage uint64, c RingCompletion) error {
	slot := compPage + ringHdrLen + uint64(c.Seq%RingSlots)*ringCompLen
	b, err := m.Span(vmpl, cpl, slot, ringCompLen, snp.AccessWrite)
	if err != nil {
		return err
	}
	clear(b)
	binary.LittleEndian.PutUint32(b[0:], c.Seq)
	binary.LittleEndian.PutUint32(b[4:], c.Status)
	binary.LittleEndian.PutUint32(b[8:], c.Len)
	return nil
}

// readRingCompletion loads the completion slot for sequence number seq.
func readRingCompletion(m *snp.Machine, vmpl snp.VMPL, cpl snp.CPL, compPage uint64, seq uint32) (RingCompletion, error) {
	slot := compPage + ringHdrLen + uint64(seq%RingSlots)*ringCompLen
	b, err := m.Span(vmpl, cpl, slot, ringCompLen, snp.AccessRead)
	if err != nil {
		return RingCompletion{}, err
	}
	return RingCompletion{
		Seq:    binary.LittleEndian.Uint32(b[0:]),
		Status: binary.LittleEndian.Uint32(b[4:]),
		Len:    binary.LittleEndian.Uint32(b[8:]),
	}, nil
}

// SubmitSrvRef is SubmitSrv with one span per field.
func (s *OSStub) SubmitSrvRef(req Request) (PendingCall, error) {
	if len(req.Payload) > RingPayloadMax {
		return PendingCall{}, fmt.Errorf("core: ring payload %d exceeds %d", len(req.Payload), RingPayloadMax)
	}
	sub, comp := s.lay.RingSub(s.vcpu), s.lay.RingComp(s.vcpu)
	head, err := ringReadU32(s.m, snp.VMPL3, snp.CPL0, comp)
	if err != nil {
		return PendingCall{}, err
	}
	tail, err := ringReadU32(s.m, snp.VMPL3, snp.CPL0, sub)
	if err != nil {
		return PendingCall{}, err
	}
	if tail-head >= RingSlots {
		return PendingCall{}, ErrRingFull
	}

	slot := int(tail % RingSlots)
	pay := s.lay.RingPayload(s.vcpu, slot)
	if len(req.Payload) > 0 {
		dst, err := s.m.Span(snp.VMPL3, snp.CPL0, pay, len(req.Payload), snp.AccessWrite)
		if err != nil {
			return PendingCall{}, err
		}
		copy(dst, req.Payload)
	}
	s.m.Clock().Charge(snp.CostPageCopy, uint64(len(req.Payload))*snp.CyclesPageCopy4K/snp.PageSize+1)

	d := RingDesc{
		Seq: tail, Svc: req.Svc, Op: req.Op,
		ReqGPA: pay, ReqLen: uint32(len(req.Payload)),
		RespGPA: pay + RingRespOff, RespCap: RingPayloadMax,
	}
	if err := writeRingDesc(s.m, snp.VMPL3, snp.CPL0, sub, d); err != nil {
		return PendingCall{}, err
	}
	if err := ringWriteU32(s.m, snp.VMPL3, snp.CPL0, sub, tail+1); err != nil {
		return PendingCall{}, err
	}
	s.m.ObserveRingSubmit(snp.VMPL3, uint64(tail), uint64(req.Svc))
	s.submitTS[tail%RingSlots] = s.m.Clock().Cycles()
	return PendingCall{Seq: tail, Svc: req.Svc, Op: req.Op}, nil
}

// PollRef is Poll with one span per field.
func (s *OSStub) PollRef(pc PendingCall) (Response, bool, error) {
	comp := s.lay.RingComp(s.vcpu)
	head, err := ringReadU32(s.m, snp.VMPL3, snp.CPL0, comp)
	if err != nil {
		return Response{}, false, err
	}
	if int32(head-pc.Seq) <= 0 {
		return Response{}, false, nil
	}
	c, err := readRingCompletion(s.m, snp.VMPL3, snp.CPL0, comp, pc.Seq)
	if err != nil {
		return Response{}, false, err
	}
	if c.Seq != pc.Seq {
		return Response{}, false, fmt.Errorf("core: completion for seq %d overwritten (slot holds %d)", pc.Seq, c.Seq)
	}
	resp := Response{Status: c.Status}
	if c.Len > 0 {
		if c.Len > RingPayloadMax {
			return Response{}, false, fmt.Errorf("core: completion length %d corrupt", c.Len)
		}
		pay := s.lay.RingPayload(s.vcpu, int(pc.Seq%RingSlots)) + RingRespOff
		src, err := s.m.Span(snp.VMPL3, snp.CPL0, pay, int(c.Len), snp.AccessRead)
		if err != nil {
			return Response{}, false, err
		}
		resp.Payload = append([]byte(nil), src...)
	}
	s.m.Clock().Charge(snp.CostPageCopy, uint64(c.Len)*snp.CyclesPageCopy4K/snp.PageSize+1)
	if int32(pc.Seq-s.latNext) >= 0 {
		s.m.ObserveRingLatency(s.m.Clock().Cycles() - s.submitTS[pc.Seq%RingSlots])
		s.latNext = pc.Seq + 1
	}
	return resp, true, nil
}

// drainRingRef is drainRing with one span per field.
func (mon *Monitor) drainRingRef(vcpu int) error {
	m, lay := mon.m, mon.lay
	sub, comp := lay.RingSub(vcpu), lay.RingComp(vcpu)

	head, err := ringReadU32(m, snp.VMPL1, snp.CPL0, comp)
	if err != nil {
		return err
	}
	tail, err := ringReadU32(m, snp.VMPL1, snp.CPL0, sub)
	if err != nil {
		return err
	}
	pending := tail - head
	if pending > RingSlots {
		pending = RingSlots
	}
	irq, err := ringReadU32(m, snp.VMPL1, snp.CPL0, sub+ringIRQOff)
	if err != nil {
		return err
	}

	drainStart := m.Clock().Cycles()
	drainRef := m.BeginSpan()
	var drained, refused uint64
	for i := uint32(0); i < pending; i++ {
		seq := head + i
		d, err := readRingDesc(m, snp.VMPL1, snp.CPL0, sub, seq)
		if err != nil {
			return err
		}
		m.Clock().Charge(snp.CostCompute, CyclesRingValidate)

		c := RingCompletion{Seq: seq, Status: mon.validateRingDesc(d, seq)}
		if c.Status != StatusOK {
			refused++
			m.ObserveDenied(snp.DeniedRing, uint64(seq)<<8|uint64(d.Svc))
		} else {
			c.Status, c.Len, err = mon.dispatchRingDesc(vcpu, d)
			if err != nil {
				return err
			}
			drained++
		}
		if err := writeRingCompletion(m, snp.VMPL1, snp.CPL0, comp, c); err != nil {
			return err
		}
		if err := ringWriteU32(m, snp.VMPL1, snp.CPL0, comp, seq+1); err != nil {
			return err
		}
	}
	m.ObserveRingDrain(snp.VMPL1, drained, refused, drainStart, drainRef)
	if irq != 0 && mon.drainNotify != nil {
		return mon.drainNotify(vcpu)
	}
	return nil
}

// RebindRingDrain rebuilds vcpu's Dom-SRV replica on its VMSA page so
// that a doorbell runs drainRingRef (ref) or drainRing; every other entry
// is served as before. A VMSA's guest code is fixed at creation, so the
// replica is destroyed, created again with the new context and
// re-registered. Both twins of a differential call it, so the rebuild
// costs each the same cycles.
func (mon *Monitor) RebindRingDrain(vcpu int, ref bool) error {
	srv, frame := mon.srvCtx(vcpu), mon.replicas[vcpu][DomSRV]
	state, err := mon.m.VMSAAt(frame)
	if err != nil {
		return err
	}
	saved := *state
	if err := mon.m.DestroyVMSA(snp.VMPL0, frame); err != nil {
		return err
	}
	ctx := snp.ContextFunc(func(r snp.Reason) error {
		if ref && r == snp.ReasonDoorbell {
			return mon.drainRingRef(vcpu)
		}
		return srv.Invoke(r)
	})
	if err := mon.m.CreateVMSA(snp.VMPL0, frame, saved, ctx); err != nil {
		return err
	}
	return mon.hypercall(0, &snp.GHCB{ExitCode: hv.ExitRegisterVMSA, ExitInfo1: frame, ExitInfo2: DomSRV})
}

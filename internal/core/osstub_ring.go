package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"veil/internal/hv"
	"veil/internal/snp"
)

// OS-side half of the batched service-invocation path: submit descriptors,
// ring the doorbell, poll completions. Submission and polling are pure
// shared-memory traffic — no privilege crossing; only Doorbell pays a
// domain switch, and it pays exactly one for the whole pending batch.

// ErrRingFull is returned by SubmitSrv when the submission ring has
// RingSlots requests in flight; the caller must ring the doorbell (or poll)
// before submitting more. This is the ring's backpressure.
var ErrRingFull = errors.New("core: submission ring full")

// ErrWouldBlock is returned by WaitIntr while the completion has not been
// published yet: the caller should block its VCPU and wait for the
// completion interrupt instead of spinning.
var ErrWouldBlock = errors.New("core: completion pending; block for interrupt")

// CyclesRingPoll models one busy-wait check of the completion head — the
// cycles a spinning core burns per poll iteration while it waits. The
// interrupt-driven path never pays it; that asymmetry is the trade the smp
// benchmark measures.
const CyclesRingPoll = 60

// Dispatcher is the scheduler-facing half of the asynchronous doorbell
// path: DoorbellAsync posts the drain here instead of performing it inline,
// and the dispatcher runs it later, charged to the owning VCPU. expectWake
// says the submitter enabled ring IRQs and will block on WaitIntr — the
// dispatcher must verify the completion interrupt actually woke it.
type Dispatcher interface {
	PostDrain(vcpu int, expectWake bool, fire func() error)
}

// SetDispatcher routes subsequent DoorbellAsync calls through d (nil
// restores the synchronous N=1 behaviour).
func (s *OSStub) SetDispatcher(d Dispatcher) { s.disp = d }

// EnableRingIRQ sets or clears the submission header's interrupt-enable
// flag: when set, every drain of this VCPU's ring ends with a completion
// interrupt relayed per the hypervisor's interrupt mode.
func (s *OSStub) EnableRingIRQ(on bool) error {
	var v uint32
	if on {
		v = 1
	}
	if err := ringWriteU32(s.m, snp.VMPL3, snp.CPL0, s.ringSub+ringIRQOff, v); err != nil {
		return err
	}
	s.irq = on
	return nil
}

// PendingCall identifies one in-flight ring submission for later polling.
type PendingCall struct {
	Seq uint32
	Svc uint8
	Op  uint8
}

// SubmitSrv posts one service request to this VCPU's submission ring
// without switching domains. The request payload is copied into the slot's
// payload page; the descriptor points VeilMon at it, and it is written
// together with the new tail through one span over the submission page's
// [0, slot end). Completion must be collected with Poll after a Doorbell.
func (s *OSStub) SubmitSrv(req Request) (PendingCall, error) {
	if len(req.Payload) > RingPayloadMax {
		return PendingCall{}, fmt.Errorf("core: ring payload %d exceeds %d", len(req.Payload), RingPayloadMax)
	}
	head, err := ringReadU32(s.m, snp.VMPL3, snp.CPL0, s.ringComp)
	if err != nil {
		return PendingCall{}, err
	}
	tail, err := ringReadU32(s.m, snp.VMPL3, snp.CPL0, s.ringSub)
	if err != nil {
		return PendingCall{}, err
	}
	if tail-head >= RingSlots {
		return PendingCall{}, ErrRingFull
	}

	pay := s.ringPay[tail%RingSlots]
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
	off := ringDescOff(tail)
	b, err := s.m.Span(snp.VMPL3, snp.CPL0, s.ringSub, off+ringDescLen, snp.AccessWrite)
	if err != nil {
		return PendingCall{}, err
	}
	putRingDesc(b[off:], d)
	binary.LittleEndian.PutUint32(b, tail+1)
	s.m.ObserveRingSubmit(snp.VMPL3, uint64(tail), uint64(req.Svc))
	s.submitTS[tail%RingSlots] = s.m.Clock().Cycles()
	return PendingCall{Seq: tail, Svc: req.Svc, Op: req.Op}, nil
}

// Doorbell triggers the one domain switch that drains every pending
// submission. Same GHCB discipline as the synchronous call path.
func (s *OSStub) Doorbell() error {
	old, hadMSR := s.m.ReadGHCBMSR(s.vcpu)
	if err := s.m.WriteGHCBMSR(s.vcpu, snp.CPL0, s.kernelGHCB); err != nil {
		return err
	}
	g := s.ghcb.Exit(hv.ExitRingDoorbell, DomSRV)
	callErr := s.hyp.GuestCall(s.vcpu, snp.VMPL3, snp.CPL0, s.kernelGHCB, g)
	if hadMSR && old != s.kernelGHCB {
		if err := s.m.WriteGHCBMSR(s.vcpu, snp.CPL0, old); err != nil && callErr == nil {
			callErr = err
		}
	}
	return callErr
}

// DoorbellAsync posts the doorbell to the dispatcher's deferred-drain queue
// and returns immediately; the drain (and its domain switch) happens later,
// charged to this VCPU. Without a dispatcher it degrades to the synchronous
// Doorbell — the single-VCPU special case.
func (s *OSStub) DoorbellAsync() error {
	if s.disp == nil {
		return s.Doorbell()
	}
	s.disp.PostDrain(s.vcpu, s.irq, s.doorbell)
	return nil
}

// WaitIntr is the interrupt-driven completion check: it returns the
// response if the completion is already published, or ErrWouldBlock when
// the caller should block its VCPU until the completion interrupt arrives.
// Unlike Poll it charges nothing while pending — a blocked VCPU burns no
// cycles, which is the entire point of the interrupt path.
func (s *OSStub) WaitIntr(pc PendingCall) (Response, error) {
	r, done, err := s.Poll(pc)
	if err != nil {
		return Response{}, err
	}
	if !done {
		return Response{}, ErrWouldBlock
	}
	return r, nil
}

// PollSpin is Poll plus the honest cost of getting there: spins busy-wait
// iterations at CyclesRingPoll each, charged before the check. Poll-mode
// schedulers use it so spinning shows up in the cycle ledger.
func (s *OSStub) PollSpin(pc PendingCall, spins int) (Response, bool, error) {
	if spins > 0 {
		s.m.Clock().Charge(snp.CostCompute, uint64(spins)*CyclesRingPoll)
	}
	return s.Poll(pc)
}

// Poll checks one in-flight submission. It returns (response, true) once
// the completion is published, or (zero, false) while the request is still
// pending. Polling a completion that RingSlots later completions have
// already overwritten is a protocol error. The head and the completion
// slot are read through one span over the completion page's [0, slot end).
func (s *OSStub) Poll(pc PendingCall) (Response, bool, error) {
	off := ringCompOff(pc.Seq)
	b, err := s.m.Span(snp.VMPL3, snp.CPL0, s.ringComp, off+ringCompLen, snp.AccessRead)
	if err != nil {
		return Response{}, false, err
	}
	if head := binary.LittleEndian.Uint32(b); int32(head-pc.Seq) <= 0 {
		return Response{}, false, nil // head has not passed seq yet (free-running comparison)
	}
	c := getRingCompletion(b[off:])
	if c.Seq != pc.Seq {
		return Response{}, false, fmt.Errorf("core: completion for seq %d overwritten (slot holds %d)", pc.Seq, c.Seq)
	}
	resp := Response{Status: c.Status}
	if c.Len > 0 {
		if c.Len > RingPayloadMax {
			return Response{}, false, fmt.Errorf("core: completion length %d corrupt", c.Len)
		}
		pay := s.ringPay[pc.Seq%RingSlots] + RingRespOff
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

// CallSrvBatch issues a slice of service requests through the ring: submit
// all (ringing the doorbell whenever the ring fills), one final doorbell,
// then collect every response in submission order. The responses are
// request-for-request identical to issuing each through CallSrv — the
// batched path only changes how many domain switches pay for them.
func (s *OSStub) CallSrvBatch(reqs []Request) ([]Response, error) {
	pending := make([]PendingCall, 0, len(reqs))
	resps := make([]Response, len(reqs))
	collected := 0

	collect := func() error {
		for ; collected < len(pending); collected++ {
			r, done, err := s.Poll(pending[collected])
			if err != nil {
				return err
			}
			if !done {
				return fmt.Errorf("core: seq %d still pending after doorbell", pending[collected].Seq)
			}
			resps[collected] = r
		}
		return nil
	}

	for _, req := range reqs {
		pc, err := s.SubmitSrv(req)
		if errors.Is(err, ErrRingFull) {
			if err := s.Doorbell(); err != nil {
				return nil, err
			}
			if err := collect(); err != nil {
				return nil, err
			}
			pc, err = s.SubmitSrv(req)
			if err != nil {
				return nil, err
			}
		} else if err != nil {
			return nil, err
		}
		pending = append(pending, pc)
	}
	if err := s.Doorbell(); err != nil {
		return nil, err
	}
	if err := collect(); err != nil {
		return nil, err
	}
	return resps, nil
}

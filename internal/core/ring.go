package core

import (
	"encoding/binary"
	"fmt"

	"veil/internal/snp"
)

// The batched service-invocation path (§5.2 extension): instead of paying a
// full OS↔Dom-SRV round trip (2 × 7,135 cycles) per IDCB request, the OS
// posts descriptors into a per-VCPU shared-memory submission ring and rings
// a doorbell — one domain switch that lets the Dom-SRV dispatcher drain
// every pending descriptor. Completions land in a VeilMon-owned completion
// ring the OS can only poll, so amortized per-call cost falls toward
// 14,276/N + marshalling as the batch grows.
//
// Ring memory lives at the start of the kernel region (like the IDCBs), so
// the boot sweep leaves the submission and payload pages OS-writable. The
// completion page is narrowed at boot: VMPL3 keeps read (polling), VMPL1
// keeps read/write (the dispatcher), VMPL2 loses access. Forging a
// completion therefore #NPFs, and because the completion pages are also
// registered as protected regions, descriptor payload pointers aimed at
// them fail sanitization during the drain.
//
// Trust model: everything the OS writes — tail, descriptors, payload bytes
// — is untrusted and re-validated inside the trusted domain at drain time,
// against the live RMP state, after the doorbell. A descriptor that names
// memory its submitter could not itself access (a confused-deputy attempt)
// is refused per-slot with StatusDenied; the machine survives and the rest
// of the batch proceeds.
//
// Span rule: each side touches a ring page through one RMP-checked
// snp.Machine.Span per operation, not one per header word or slot. Submit
// writes the descriptor and the new tail through one span over the
// submission page's [0, slot end); Poll reads the head and the completion
// slot through one span over the completion page's [0, slot end); the
// drain reads the tail and the IRQ flag through one span and publishes
// each completion with the new head through one span. The drain takes a
// fresh span for every descriptor, after its dispatch: a span taken
// before would miss a halt or an RMP change the service handler caused.
// Every byte is still reached at the same VMPL, CPL and access, on the
// same page, at the same point in the protocol; descriptors are decoded
// into a local RingDesc before validateRingDesc reads them.

const (
	// RingSlots is the descriptor capacity of one submission ring. 31
	// slots of 64 bytes plus the 64-byte header fill half the page.
	RingSlots = 31
	// RingPagesPerVCPU: one submission page, one completion page, and one
	// payload page per slot.
	RingPagesPerVCPU = 2 + RingSlots
	// RingPayloadMax bounds one request or response payload, matching the
	// synchronous IDCB limit so the two paths accept identical requests.
	RingPayloadMax = IDCBPayloadMax
	// RingRespOff is the response area's offset within a payload page
	// (requests occupy the lower half).
	RingRespOff = snp.PageSize / 2

	ringHdrLen  = 64 // submission/completion page header (tail/head u32)
	ringDescLen = 64
	ringCompLen = 16

	// ringIRQOff is the submission header's interrupt-enable flag (u32 at
	// offset 4, after the tail). When non-zero, drainRing raises the
	// completion interrupt through the monitor's drain notifier after
	// publishing the batch. OS-owned and therefore untrusted: lying only
	// hurts the OS (a spurious interrupt, or a lost wake-up the scheduler
	// detects and refuses).
	ringIRQOff = 4

	// CyclesRingValidate models VeilMon's per-descriptor drain work:
	// sequence/length checks, the sanitizer lookup and the RMP re-read.
	CyclesRingValidate = 120
)

// RingDesc is one submission-ring descriptor. The OS fills it; VeilMon
// re-validates every field at drain time.
type RingDesc struct {
	Seq     uint32 // free-running sequence number (== ring tail at submit)
	Svc     uint8
	Op      uint8
	Flags   uint16
	ReqGPA  uint64 // request payload (OS-readable memory)
	ReqLen  uint32
	RespCap uint32 // capacity of the response area at RespGPA
	RespGPA uint64 // response payload (OS-writable memory)
}

// RingCompletion is one completion-ring slot, written only by VeilMon.
type RingCompletion struct {
	Seq    uint32
	Status uint32
	Len    uint32 // response bytes written at the descriptor's RespGPA
}

// ringReadU32 / ringWriteU32 access a ring page header field as software at
// vmpl/cpl (the RMP check applies — this is how completion-header writes by
// the OS fault).
func ringReadU32(m *snp.Machine, vmpl snp.VMPL, cpl snp.CPL, phys uint64) (uint32, error) {
	b, err := m.Span(vmpl, cpl, phys, 4, snp.AccessRead)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func ringWriteU32(m *snp.Machine, vmpl snp.VMPL, cpl snp.CPL, phys uint64, v uint32) error {
	b, err := m.Span(vmpl, cpl, phys, 4, snp.AccessWrite)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b, v)
	return nil
}

// ringDescOff and ringCompOff return the byte offset of the slot for
// sequence number seq within its submission or completion page. A span
// over [0, off+slot length) covers the page's header and that slot.
func ringDescOff(seq uint32) int { return ringHdrLen + int(seq%RingSlots)*ringDescLen }

func ringCompOff(seq uint32) int { return ringHdrLen + int(seq%RingSlots)*ringCompLen }

// putRingDesc encodes d into a descriptor slot.
func putRingDesc(b []byte, d RingDesc) {
	b = b[:ringDescLen]
	clear(b)
	binary.LittleEndian.PutUint32(b[0:], d.Seq)
	b[4] = d.Svc
	b[5] = d.Op
	binary.LittleEndian.PutUint16(b[6:], d.Flags)
	binary.LittleEndian.PutUint64(b[8:], d.ReqGPA)
	binary.LittleEndian.PutUint32(b[16:], d.ReqLen)
	binary.LittleEndian.PutUint32(b[20:], d.RespCap)
	binary.LittleEndian.PutUint64(b[24:], d.RespGPA)
}

// readRingDesc loads the descriptor in the slot for sequence number seq
// through one span over that slot.
func readRingDesc(m *snp.Machine, vmpl snp.VMPL, cpl snp.CPL, subPage uint64, seq uint32) (RingDesc, error) {
	b, err := m.Span(vmpl, cpl, subPage+uint64(ringDescOff(seq)), ringDescLen, snp.AccessRead)
	if err != nil {
		return RingDesc{}, err
	}
	return RingDesc{
		Seq:     binary.LittleEndian.Uint32(b[0:]),
		Svc:     b[4],
		Op:      b[5],
		Flags:   binary.LittleEndian.Uint16(b[6:]),
		ReqGPA:  binary.LittleEndian.Uint64(b[8:]),
		ReqLen:  binary.LittleEndian.Uint32(b[16:]),
		RespCap: binary.LittleEndian.Uint32(b[20:]),
		RespGPA: binary.LittleEndian.Uint64(b[24:]),
	}, nil
}

// putRingCompletion encodes c into a completion slot.
func putRingCompletion(b []byte, c RingCompletion) {
	b = b[:ringCompLen]
	clear(b)
	binary.LittleEndian.PutUint32(b[0:], c.Seq)
	binary.LittleEndian.PutUint32(b[4:], c.Status)
	binary.LittleEndian.PutUint32(b[8:], c.Len)
}

// getRingCompletion decodes a completion slot.
func getRingCompletion(b []byte) RingCompletion {
	b = b[:ringCompLen]
	return RingCompletion{
		Seq:    binary.LittleEndian.Uint32(b[0:]),
		Status: binary.LittleEndian.Uint32(b[4:]),
		Len:    binary.LittleEndian.Uint32(b[8:]),
	}
}

// setupRings installs the boot-time RMP policy for the per-VCPU service
// rings. The submission and payload pages keep the kernel region's standing
// OS permissions; the completion page is VeilMon's reply channel: the OS
// may poll it but only VMPL1 may write it. Completion pages also join the
// protected-region set so the sanitizer refuses descriptor payloads aimed
// at them — which, via the sanitize check in servePValidate, also keeps a
// hostile OS from laundering the narrowing away through re-validation.
func (mon *Monitor) setupRings() error {
	for v := 0; v < mon.lay.VCPUs; v++ {
		comp := mon.lay.RingComp(v)
		for _, g := range []struct {
			vmpl snp.VMPL
			perm snp.Perm
		}{
			{snp.VMPL1, snp.PermRW},
			{snp.VMPL2, snp.PermNone},
			{snp.VMPL3, snp.PermRead},
		} {
			if err := mon.m.RMPAdjust(snp.VMPL0, comp, g.vmpl, g.perm); err != nil {
				return fmt.Errorf("core: ring setup vcpu %d: %w", v, err)
			}
		}
		if err := mon.regions.Add(comp, comp+snp.PageSize, "ring-completion"); err != nil {
			return err
		}
	}
	return nil
}

// ringGPAPermitted is the drain-time RMP re-validation: every page the
// descriptor's [gpa, gpa+n) range touches must be an assigned, validated,
// non-VMSA page on which the submitting domain (VMPL3) itself holds `need`
// — so the OS cannot use VeilMon as a confused deputy against memory only
// higher domains may touch (e.g. W⊕X-protected kernel text) — and on which
// VMPL1 holds `need` too, so the dispatch below cannot #NPF.
func (mon *Monitor) ringGPAPermitted(gpa uint64, n uint32, need snp.Perm) bool {
	if n == 0 {
		return true
	}
	last := gpa + uint64(n) - 1
	if last < gpa { // wrapped
		return false
	}
	for p := snp.PageBase(gpa); p <= snp.PageBase(last); p += snp.PageSize {
		e, err := mon.m.RMPEntryAt(p)
		if err != nil || !e.Assigned || !e.Validated || e.VMSA {
			return false
		}
		if !e.Perms[snp.VMPL3].Has(need) || !e.Perms[snp.VMPL1].Has(need) {
			return false
		}
	}
	return true
}

// validateRingDesc runs the full drain-time check chain on one descriptor.
// It returns StatusOK only when the dispatcher may safely touch both
// payload ranges at VMPL1.
func (mon *Monitor) validateRingDesc(d RingDesc, expectSeq uint32) uint32 {
	if d.Seq != expectSeq {
		return StatusDenied // stale or forged slot (tail ran ahead of real submissions)
	}
	if d.Svc == SvcMon {
		return StatusDenied // monitor ops never flow through the service ring
	}
	if mon.services[d.Svc] == nil {
		return StatusError
	}
	if d.ReqLen > RingPayloadMax || d.RespCap > RingPayloadMax {
		return StatusDenied
	}
	if d.ReqLen > 0 && mon.Sanitize(d.ReqGPA, uint64(d.ReqLen)) != nil {
		return StatusDenied
	}
	if d.RespCap > 0 && mon.Sanitize(d.RespGPA, uint64(d.RespCap)) != nil {
		return StatusDenied
	}
	if !mon.ringGPAPermitted(d.ReqGPA, d.ReqLen, snp.PermRead) {
		return StatusDenied
	}
	if !mon.ringGPAPermitted(d.RespGPA, d.RespCap, snp.PermWrite) {
		return StatusDenied
	}
	return StatusOK
}

// drainRing serves one doorbell: consume every pending descriptor on the
// VCPU's submission ring, dispatch the valid ones to their services, and
// publish completions. Exactly one domain switch covers the whole batch —
// this is the amortization the batched path exists for.
// Its spans follow the span rule at the top of this file.
func (mon *Monitor) drainRing(vcpu int) error {
	m := mon.m
	sub, comp := mon.lay.RingSub(vcpu), mon.lay.RingComp(vcpu)

	head, err := ringReadU32(m, snp.VMPL1, snp.CPL0, comp)
	if err != nil {
		return err
	}
	hdr, err := m.Span(snp.VMPL1, snp.CPL0, sub, ringIRQOff+4, snp.AccessRead)
	if err != nil {
		return err
	}
	tail, irq := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[ringIRQOff:])
	pending := tail - head
	if pending > RingSlots {
		pending = RingSlots // hostile tail jump: never trust more than capacity
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
		off := ringCompOff(seq)
		b, err := m.Span(snp.VMPL1, snp.CPL0, comp, off+ringCompLen, snp.AccessWrite)
		if err != nil {
			return err
		}
		putRingCompletion(b[off:], c)
		binary.LittleEndian.PutUint32(b, seq+1)
	}
	m.ObserveRingDrain(snp.VMPL1, drained, refused, drainStart, drainRef)
	// Completions are published; raise the interrupt the submitter asked
	// for. Dom-SRV is still current here, so where the handler runs is the
	// relay protocol's call — under RefuseRelay it lands right back in this
	// domain and halts via srvCtx.
	if irq != 0 && mon.drainNotify != nil {
		return mon.drainNotify(vcpu)
	}
	return nil
}

// dispatchRingDesc runs one validated descriptor through its service
// handler and writes the response payload back to the descriptor's RespGPA.
// Validation already proved both GPA ranges safe for VMPL1; the only
// remaining refusals are structural (page-boundary crossings, responses
// larger than the descriptor's capacity), reported per-slot.
func (mon *Monitor) dispatchRingDesc(vcpu int, d RingDesc) (status uint32, respLen uint32, err error) {
	m := mon.m
	// Stage the request in the monitor's reusable ring buffer: descriptors
	// dispatch strictly one at a time and no handler retains its payload,
	// so the per-descriptor allocation disappears from the drain loop.
	if uint32(cap(mon.ringStage)) < d.ReqLen {
		mon.ringStage = make([]byte, d.ReqLen)
	}
	payload := mon.ringStage[:d.ReqLen]
	if d.ReqLen > 0 {
		src, err := m.Span(snp.VMPL1, snp.CPL0, d.ReqGPA, int(d.ReqLen), snp.AccessRead)
		if err != nil {
			return StatusError, 0, nil // crosses a page boundary: refuse the slot
		}
		copy(payload, src)
	}

	start := m.Clock().Cycles()
	ref := m.BeginSpan()
	st, resp := mon.services[d.Svc](vcpu, d.Op, payload)
	m.ObserveService(snp.VMPL1, uint64(d.Svc), uint64(d.Op), start, ref)

	if len(resp) > int(d.RespCap) {
		return StatusError, 0, nil // response exceeds the submitter's buffer
	}
	if len(resp) > 0 {
		dst, err := m.Span(snp.VMPL1, snp.CPL0, d.RespGPA, len(resp), snp.AccessWrite)
		if err != nil {
			return StatusError, 0, nil
		}
		copy(dst, resp)
	}
	return st, uint32(len(resp)), nil
}

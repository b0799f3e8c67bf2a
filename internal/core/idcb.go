package core

import (
	"encoding/binary"
	"fmt"

	"veil/internal/snp"
)

// Inter-domain communication blocks (IDCBs, §5.2) are per-VCPU shared pages
// allocated in the *less privileged* domain's memory so that both sides of
// a pair can access them. The request frame occupies the first half of the
// page and the response frame the second half.

// Service identifiers (high-level request routing).
const (
	SvcMon uint8 = 0 // VeilMon itself (delegated privileged functionality)
	SvcKCI uint8 = 1 // VeilS-Kci
	SvcENC uint8 = 2 // VeilS-Enc management interface
	SvcLOG uint8 = 3 // VeilS-Log
	SvcCHN uint8 = 4 // VeilS-Channel (attested inter-CVM sessions)
)

// ServiceNames returns the display names of the protocol's service ids,
// indexed by id — the table observability layers (per-service latency
// histograms, flame-graph frames) resolve Event.Arg1 against.
func ServiceNames() []string {
	return []string{"mon", "kci", "enc", "log", "chn"}
}

// Monitor operations.
const (
	OpPValidate uint8 = 1
	OpBootAP    uint8 = 2
)

// Response status codes.
const (
	StatusOK     uint32 = 0
	StatusDenied uint32 = 1 // request sanitization failed (§8.1)
	StatusError  uint32 = 2
)

const (
	idcbReqOff  = 0
	idcbRespOff = snp.PageSize / 2
	idcbHdrLen  = 8
	// IDCBPayloadMax bounds a single request or response payload.
	IDCBPayloadMax = snp.PageSize/2 - idcbHdrLen
)

// Request is one IDCB request frame.
type Request struct {
	Svc     uint8
	Op      uint8
	Payload []byte
}

// Response is one IDCB response frame.
type Response struct {
	Status  uint32
	Payload []byte
}

// WriteIDCBRequest stores a request into the IDCB page as software at
// vmpl/cpl (the RMP check applies: a domain can only use IDCBs it can
// write).
func WriteIDCBRequest(m *snp.Machine, vmpl snp.VMPL, cpl snp.CPL, page uint64, req Request) error {
	if len(req.Payload) > IDCBPayloadMax {
		return fmt.Errorf("core: IDCB request payload %d exceeds %d", len(req.Payload), IDCBPayloadMax)
	}
	dst, err := m.Span(vmpl, cpl, page+idcbReqOff, idcbHdrLen+len(req.Payload), snp.AccessWrite)
	if err != nil {
		return err
	}
	clear(dst[:idcbHdrLen])
	dst[0] = req.Svc
	dst[1] = req.Op
	binary.LittleEndian.PutUint32(dst[4:], uint32(len(req.Payload)))
	copy(dst[idcbHdrLen:], req.Payload)
	return nil
}

// ReadIDCBRequestInto loads the pending request from an IDCB page into
// caller-owned staging: the payload is copied into stage (grown as
// needed) and the returned Request's Payload aliases it. The grown buffer
// is returned for reuse. The monitor's dispatch paths feed it a
// per-monitor buffer — every registered handler either fully consumes
// the payload before returning or copies what it retains, so one staging
// buffer per monitor suffices and the per-request allocation disappears.
func ReadIDCBRequestInto(m *snp.Machine, vmpl snp.VMPL, page uint64, stage []byte) (Request, []byte, error) {
	hdr, err := m.Span(vmpl, snp.CPL0, page+idcbReqOff, idcbHdrLen, snp.AccessRead)
	if err != nil {
		return Request{}, stage, err
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > IDCBPayloadMax {
		return Request{}, stage, fmt.Errorf("core: IDCB request length %d corrupt", n)
	}
	if uint32(cap(stage)) < n {
		stage = make([]byte, n, IDCBPayloadMax)
	}
	stage = stage[:n]
	req := Request{Svc: hdr[0], Op: hdr[1], Payload: stage}
	if n > 0 {
		pay, err := m.Span(vmpl, snp.CPL0, page+idcbReqOff+idcbHdrLen, int(n), snp.AccessRead)
		if err != nil {
			return Request{}, stage, err
		}
		copy(stage, pay)
	}
	return req, stage, nil
}

// WriteIDCBResponse stores a response frame.
func WriteIDCBResponse(m *snp.Machine, vmpl snp.VMPL, page uint64, resp Response) error {
	if len(resp.Payload) > IDCBPayloadMax {
		return fmt.Errorf("core: IDCB response payload %d exceeds %d", len(resp.Payload), IDCBPayloadMax)
	}
	dst, err := m.Span(vmpl, snp.CPL0, page+idcbRespOff, idcbHdrLen+len(resp.Payload), snp.AccessWrite)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(dst[0:], resp.Status)
	binary.LittleEndian.PutUint32(dst[4:], uint32(len(resp.Payload)))
	copy(dst[idcbHdrLen:], resp.Payload)
	return nil
}

// ReadIDCBResponseInto loads the response frame as software at vmpl/cpl
// into caller-owned staging, the mirror of ReadIDCBRequestInto: the
// payload is copied into stage (grown as needed), the returned Response's
// Payload aliases it, and the grown buffer is returned for reuse.
func ReadIDCBResponseInto(m *snp.Machine, vmpl snp.VMPL, cpl snp.CPL, page uint64, stage []byte) (Response, []byte, error) {
	hdr, err := m.Span(vmpl, cpl, page+idcbRespOff, idcbHdrLen, snp.AccessRead)
	if err != nil {
		return Response{}, stage, err
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > IDCBPayloadMax {
		return Response{}, stage, fmt.Errorf("core: IDCB response length %d corrupt", n)
	}
	if uint32(cap(stage)) < n {
		stage = make([]byte, n, IDCBPayloadMax)
	}
	stage = stage[:n]
	resp := Response{Status: binary.LittleEndian.Uint32(hdr[0:]), Payload: stage}
	if n > 0 {
		pay, err := m.Span(vmpl, cpl, page+idcbRespOff+idcbHdrLen, int(n), snp.AccessRead)
		if err != nil {
			return Response{}, stage, err
		}
		copy(stage, pay)
	}
	return resp, stage, nil
}

// enc is a tiny append-encoder for request payloads.
type enc struct{ b []byte }

func (e *enc) u64(v uint64) *enc {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	e.b = append(e.b, t[:]...)
	return e
}

func (e *enc) u32(v uint32) *enc {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	e.b = append(e.b, t[:]...)
	return e
}

func (e *enc) u8(v uint8) *enc { e.b = append(e.b, v); return e }

// dec is the matching decoder; it latches the first error.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("core: truncated IDCB payload")
	}
}

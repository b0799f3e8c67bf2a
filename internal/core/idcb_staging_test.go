package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"veil/internal/snp"
)

// ReadIDCBRequest is the allocating reference for ReadIDCBRequestInto:
// it loads the pending request from an IDCB page into a fresh payload.
func ReadIDCBRequest(m *snp.Machine, vmpl snp.VMPL, page uint64) (Request, error) {
	hdr, err := m.Span(vmpl, snp.CPL0, page+idcbReqOff, idcbHdrLen, snp.AccessRead)
	if err != nil {
		return Request{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > IDCBPayloadMax {
		return Request{}, fmt.Errorf("core: IDCB request length %d corrupt", n)
	}
	req := Request{Svc: hdr[0], Op: hdr[1], Payload: make([]byte, n)}
	if n > 0 {
		pay, err := m.Span(vmpl, snp.CPL0, page+idcbReqOff+idcbHdrLen, int(n), snp.AccessRead)
		if err != nil {
			return Request{}, err
		}
		copy(req.Payload, pay)
	}
	return req, nil
}

// ReadIDCBResponse is the allocating reference for ReadIDCBResponseInto:
// it loads the response frame as software at vmpl/cpl into a fresh
// payload.
func ReadIDCBResponse(m *snp.Machine, vmpl snp.VMPL, cpl snp.CPL, page uint64) (Response, error) {
	hdr, err := m.Span(vmpl, cpl, page+idcbRespOff, idcbHdrLen, snp.AccessRead)
	if err != nil {
		return Response{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > IDCBPayloadMax {
		return Response{}, fmt.Errorf("core: IDCB response length %d corrupt", n)
	}
	resp := Response{Status: binary.LittleEndian.Uint32(hdr[0:]), Payload: make([]byte, n)}
	if n > 0 {
		pay, err := m.Span(vmpl, cpl, page+idcbRespOff+idcbHdrLen, int(n), snp.AccessRead)
		if err != nil {
			return Response{}, err
		}
		copy(resp.Payload, pay)
	}
	return resp, nil
}

func idcbTestMachine(t *testing.T) (*snp.Machine, uint64) {
	t.Helper()
	m := snp.NewMachine(snp.Config{MemBytes: 1 << 20, VCPUs: 1})
	page := uint64(0x10000)
	if err := m.HVAssignPage(page); err != nil {
		t.Fatal(err)
	}
	if err := m.PValidate(snp.VMPL0, page, true); err != nil {
		t.Fatal(err)
	}
	return m, page
}

// TestReadIDCBRequestIntoDifferential pins the staged request reader to
// the allocating one across randomized frames, including the corrupt-
// length refusal.
func TestReadIDCBRequestIntoDifferential(t *testing.T) {
	m, page := idcbTestMachine(t)
	rng := rand.New(rand.NewSource(11))
	var stage []byte
	for i := 0; i < 200; i++ {
		payload := make([]byte, rng.Intn(IDCBPayloadMax+1))
		rng.Read(payload)
		req := Request{Svc: uint8(rng.Intn(6)), Op: uint8(rng.Intn(8)), Payload: payload}
		if err := WriteIDCBRequest(m, snp.VMPL0, snp.CPL0, page, req); err != nil {
			t.Fatal(err)
		}
		want, werr := ReadIDCBRequest(m, snp.VMPL0, page)
		var got Request
		var gerr error
		got, stage, gerr = ReadIDCBRequestInto(m, snp.VMPL0, page, stage)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("iter %d: staged err=%v, allocating err=%v", i, gerr, werr)
		}
		if got.Svc != want.Svc || got.Op != want.Op || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("iter %d: staged read diverged: got {%d %d %d bytes}, want {%d %d %d bytes}",
				i, got.Svc, got.Op, len(got.Payload), want.Svc, want.Op, len(want.Payload))
		}
	}
	// Corrupt length header: both readers must refuse identically.
	span, err := m.Span(snp.VMPL0, snp.CPL0, page+4, 4, snp.AccessWrite)
	if err != nil {
		t.Fatal(err)
	}
	span[0], span[1], span[2], span[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadIDCBRequest(m, snp.VMPL0, page); err == nil {
		t.Fatal("allocating reader accepted a corrupt length")
	}
	if _, _, err := ReadIDCBRequestInto(m, snp.VMPL0, page, stage); err == nil {
		t.Fatal("staged reader accepted a corrupt length")
	}
}

// TestReadIDCBRequestIntoZeroAlloc pins the staged reader at zero
// allocations once the staging buffer has grown to the payload ceiling.
func TestReadIDCBRequestIntoZeroAlloc(t *testing.T) {
	m, page := idcbTestMachine(t)
	payload := bytes.Repeat([]byte{0x5a}, IDCBPayloadMax)
	if err := WriteIDCBRequest(m, snp.VMPL0, snp.CPL0, page, Request{Svc: SvcKCI, Op: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	stage := make([]byte, 0, IDCBPayloadMax)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		_, stage, err = ReadIDCBRequestInto(m, snp.VMPL0, page, stage)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("staged IDCB read allocates %.1f times per request, want 0", allocs)
	}
}

// TestReadIDCBResponseIntoDifferential pins the staged response reader to
// the allocating one on random frames (every tenth one empty) and on a
// corrupt length.
func TestReadIDCBResponseIntoDifferential(t *testing.T) {
	m, page := idcbTestMachine(t)
	rng := rand.New(rand.NewSource(12))
	var stage []byte
	for i := 0; i < 200; i++ {
		n := rng.Intn(IDCBPayloadMax + 1)
		if i%10 == 0 {
			n = 0
		}
		payload := make([]byte, n)
		rng.Read(payload)
		if err := WriteIDCBResponse(m, snp.VMPL0, page, Response{Status: uint32(rng.Intn(3)), Payload: payload}); err != nil {
			t.Fatal(err)
		}
		want, werr := ReadIDCBResponse(m, snp.VMPL0, snp.CPL0, page)
		var got Response
		var gerr error
		got, stage, gerr = ReadIDCBResponseInto(m, snp.VMPL0, snp.CPL0, page, stage)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("iter %d: staged err=%v, allocating err=%v", i, gerr, werr)
		}
		if got.Status != want.Status || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("iter %d: staged read diverged: got {%d %d bytes}, want {%d %d bytes}",
				i, got.Status, len(got.Payload), want.Status, len(want.Payload))
		}
	}
	// Corrupt length header: both readers must refuse identically.
	span, err := m.Span(snp.VMPL0, snp.CPL0, page+idcbRespOff+4, 4, snp.AccessWrite)
	if err != nil {
		t.Fatal(err)
	}
	span[0], span[1], span[2], span[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadIDCBResponse(m, snp.VMPL0, snp.CPL0, page); err == nil {
		t.Fatal("allocating reader accepted a corrupt length")
	}
	if _, _, err := ReadIDCBResponseInto(m, snp.VMPL0, snp.CPL0, page, stage); err == nil {
		t.Fatal("staged reader accepted a corrupt length")
	}
}

package core

import (
	"encoding/binary"
	"fmt"
)

// The stub's network surface: the OS as VeilS-Channel's untrusted NIC
// driver. It transmits frames the service hands it and delivers frames the
// fabric hands it, routing on cleartext headers exactly as a real NIC
// routes on packet headers — without ever seeing a session key or a
// plaintext payload. The fleet assembly wires tx to the fabric.

// SetNetSender installs the transmit path (nil disconnects). The fleet
// stepper points it at the simulated fabric. tx must copy any frame it
// keeps: the stub hands it frames that alias its response stage.
func (s *OSStub) SetNetSender(tx func(dst int, frame []byte) error) { s.netTx = tx }

// netSend transmits one frame, if a sender is wired.
func (s *OSStub) netSend(dst int, frame []byte) error {
	if s.netTx == nil {
		return fmt.Errorf("core: no network sender wired on VCPU %d", s.vcpu)
	}
	return s.netTx(dst, frame)
}

// ChnDial asks VeilS-Channel to start a session with a peer machine and
// transmits the resulting dial frame. It returns the session id.
func (s *OSStub) ChnDial(peer int) (uint32, error) {
	e := s.encoder().u32(uint32(peer))
	resp, err := s.callSrv(Request{Svc: SvcCHN, Op: OpChnDial, Payload: e.b})
	if err != nil {
		return 0, err
	}
	if err := statusErr(resp); err != nil {
		return 0, err
	}
	if len(resp.Payload) < 4 {
		return 0, fmt.Errorf("core: short dial response")
	}
	sid := binary.LittleEndian.Uint32(resp.Payload)
	return sid, s.netSend(peer, resp.Payload[4:])
}

// ChnDeliver hands one received frame to the service and transmits any
// reply frame the handshake produces. A StatusDenied response surfaces as
// ErrDenied: the service refused the frame (and left auditor evidence).
func (s *OSStub) ChnDeliver(frame []byte) error {
	resp, err := s.callSrv(Request{Svc: SvcCHN, Op: OpChnDeliver, Payload: frame})
	if err != nil {
		return err
	}
	if err := statusErr(resp); err != nil {
		return err
	}
	if len(resp.Payload) == 0 || resp.Payload[0] == 0 {
		return nil
	}
	if len(resp.Payload) < 5 {
		return fmt.Errorf("core: short deliver response")
	}
	dst := int(binary.LittleEndian.Uint32(resp.Payload[1:]))
	return s.netSend(dst, resp.Payload[5:])
}

// ChnSend seals one application message on a session and transmits the
// data frame. The session is named by its (initiator, id) pair.
func (s *OSStub) ChnSend(init int, sid uint32, msg []byte) error {
	e := s.encoder().u32(uint32(init)).u32(sid)
	e.b = append(e.b, msg...)
	resp, err := s.callSrv(Request{Svc: SvcCHN, Op: OpChnSend, Payload: e.b})
	if err != nil {
		return err
	}
	if err := statusErr(resp); err != nil {
		return err
	}
	if len(resp.Payload) < 4 {
		return fmt.Errorf("core: short send response")
	}
	dst := int(binary.LittleEndian.Uint32(resp.Payload))
	return s.netSend(dst, resp.Payload[4:])
}

// ChnRecv pops the next decrypted inbound message of a session, reporting
// whether one was available.
func (s *OSStub) ChnRecv(init int, sid uint32) ([]byte, bool, error) {
	e := s.encoder().u32(uint32(init)).u32(sid)
	resp, err := s.callSrv(Request{Svc: SvcCHN, Op: OpChnRecv, Payload: e.b})
	if err != nil {
		return nil, false, err
	}
	if err := statusErr(resp); err != nil {
		return nil, false, err
	}
	if len(resp.Payload) == 0 || resp.Payload[0] == 0 {
		return nil, false, nil
	}
	return append([]byte(nil), resp.Payload[1:]...), true, nil
}

// ChnState queries a session's handshake state (chn.StateNone/Dialing/
// Established as a raw byte; the chn package owns the named constants).
func (s *OSStub) ChnState(init int, sid uint32) (uint8, error) {
	e := s.encoder().u32(uint32(init)).u32(sid)
	resp, err := s.callSrv(Request{Svc: SvcCHN, Op: OpChnState, Payload: e.b})
	if err != nil {
		return 0, err
	}
	if err := statusErr(resp); err != nil {
		return 0, err
	}
	if len(resp.Payload) != 1 {
		return 0, fmt.Errorf("core: short state response")
	}
	return resp.Payload[0], nil
}

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
//
// Like a NIC driver's per-device state, the stub keeps a session view per
// machine: for each (init, sid) the handshake state and the number of
// opened messages waiting in the service's inbox. Service responses are
// its only input — the event header of every dial and delivery, each
// receive result, each state answer — so it knows nothing the OS could
// not already infer. It lets ChnState answer Established (a terminal
// state) and ChnRecv answer "empty" without a domain switch. The
// invariant: pending equals the service inbox length, because every push
// is reported in the delivery response that caused it and every pop is a
// ChnRecv through one of the machine's stubs. A hostile OS that ignores or
// corrupts its view only starves itself: the service still refuses
// sending on a session that is not established.

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

// chnView is one machine's OS-side record of its VeilS-Channel sessions.
type chnView struct {
	sessions map[uint64]chnEntry // key: init<<32 | sid
}

type chnEntry struct {
	state   uint8
	pending int
}

func newChnView() *chnView { return &chnView{sessions: make(map[uint64]chnEntry)} }

func chnKey(init, sid uint32) uint64 { return uint64(init)<<32 | uint64(sid) }

// event applies one event header from a dial or delivery response and
// returns the rest of the response.
func (v *chnView) event(p []byte) ([]byte, error) {
	if len(p) < ChnEventLen {
		return nil, fmt.Errorf("core: short channel event")
	}
	k := chnKey(binary.LittleEndian.Uint32(p[1:]), binary.LittleEndian.Uint32(p[5:]))
	e := v.sessions[k]
	switch p[0] {
	case ChnEventDialing:
		e.state = ChnStateDialing
	case ChnEventEstablished:
		e.state = ChnStateEstablished
	case ChnEventQueued:
		// Only an established session opens data frames.
		e.state = ChnStateEstablished
		e.pending++
	default:
		return nil, fmt.Errorf("core: unknown channel event %d", p[0])
	}
	v.sessions[k] = e
	return p[ChnEventLen:], nil
}

// ShareChnView makes s use other's session view. A machine has one view,
// as a kernel driver has one state per device rather than per VCPU: a
// frame delivered through one VCPU's stub is received through another's.
func (s *OSStub) ShareChnView(other *OSStub) { s.chn = other.chn }

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
	frame, err := s.chn.event(resp.Payload)
	if err != nil {
		return 0, err
	}
	sid := binary.LittleEndian.Uint32(resp.Payload[5:])
	return sid, s.netSend(peer, frame)
}

// ChnDeliver hands one received frame to the service, records the event
// its response reports, and transmits any reply frame the handshake
// produces. A StatusDenied response surfaces as ErrDenied: the service
// refused the frame (and left auditor evidence).
func (s *OSStub) ChnDeliver(frame []byte) error {
	resp, err := s.callSrv(Request{Svc: SvcCHN, Op: OpChnDeliver, Payload: frame})
	if err != nil {
		return err
	}
	if err := statusErr(resp); err != nil {
		return err
	}
	p, err := s.chn.event(resp.Payload)
	if err != nil {
		return err
	}
	if len(p) == 0 || p[0] == 0 {
		return nil
	}
	if len(p) < 5 {
		return fmt.Errorf("core: short deliver response")
	}
	dst := int(binary.LittleEndian.Uint32(p[1:]))
	return s.netSend(dst, p[5:])
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
// whether one was available. A session the view knows with nothing
// pending answers "empty" without a domain switch; an unknown session
// still asks the service, which refuses it if it does not exist.
//
// The message aliases the stub's response stage: it is valid until this
// stub's next call, so a caller that keeps it, or needs it across another
// stub call, copies it first.
func (s *OSStub) ChnRecv(init int, sid uint32) ([]byte, bool, error) {
	k := chnKey(uint32(init), sid)
	v, known := s.chn.sessions[k]
	if known && v.pending == 0 {
		return nil, false, nil
	}
	e := s.encoder().u32(uint32(init)).u32(sid)
	resp, err := s.callSrv(Request{Svc: SvcCHN, Op: OpChnRecv, Payload: e.b})
	if err != nil {
		return nil, false, err
	}
	if err := statusErr(resp); err != nil {
		return nil, false, err
	}
	if len(resp.Payload) == 0 || resp.Payload[0] == 0 {
		if known {
			v.pending = 0
			s.chn.sessions[k] = v
		}
		return nil, false, nil
	}
	if known {
		v.pending--
		s.chn.sessions[k] = v
	}
	return resp.Payload[1:], true, nil
}

// ChnState queries a session's handshake state (ChnStateNone, Dialing or
// Established). Established is terminal, so the view answers it without a
// domain switch; any other state asks the service, and the answer updates
// a session the view already tracks.
func (s *OSStub) ChnState(init int, sid uint32) (uint8, error) {
	k := chnKey(uint32(init), sid)
	v, known := s.chn.sessions[k]
	if known && v.state == ChnStateEstablished {
		return ChnStateEstablished, nil
	}
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
	if known {
		v.state = resp.Payload[0]
		s.chn.sessions[k] = v
	}
	return resp.Payload[0], nil
}

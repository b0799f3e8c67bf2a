package core

import (
	"encoding/binary"
	"fmt"
)

// The stub's network surface: the OS as VeilS-Channel's untrusted NIC
// driver. It transmits frames the service hands it and delivers frames the
// fabric hands it, routing on cleartext headers exactly as a real NIC
// routes on packet headers. It never holds a session key, so it cannot
// forge, replay or reorder a frame without the service refusing it; but it
// does see the plaintext of the sessions it terminates, as a NIC driver's
// stack sees the packets it receives: the service answers each opened data
// frame with its message. The fleet assembly wires tx to the fabric.
//
// Like a NIC driver's per-device state, the stub keeps a session view per
// machine: for each (init, sid) the handshake state and the queue of
// received messages not yet taken by ChnRecv. Service responses are its
// only input — the event header of every dial and delivery, the message a
// Queued event carries, each state answer. It lets ChnState answer
// Established (a terminal state) and ChnRecv answer every receive without
// a domain switch. The view knows every session the service holds, because
// the dial or delivery response that creates one carries its event; and a
// message is queued exactly when the service counts it received. A hostile
// OS that ignores or corrupts its view only starves itself: the service
// still refuses sending on a session that is not established.

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
	sessions map[uint64]*chnEntry // key: init<<32 | sid
}

type chnEntry struct {
	state uint8
	// queue holds the received messages in arrival order. Slots past its
	// length keep the buffers ChnRecv handed back, for later messages to
	// be copied into.
	queue [][]byte
}

func newChnView() *chnView { return &chnView{sessions: make(map[uint64]*chnEntry)} }

func chnKey(init, sid uint32) uint64 { return uint64(init)<<32 | uint64(sid) }

// event applies one event header from a dial or delivery response and
// returns the rest of the response. A Queued event's rest is its message,
// which the view queues, so it returns nothing.
func (v *chnView) event(p []byte) ([]byte, error) {
	if len(p) < ChnEventLen {
		return nil, fmt.Errorf("core: short channel event")
	}
	var state uint8
	switch p[0] {
	case ChnEventDialing:
		state = ChnStateDialing
	case ChnEventEstablished, ChnEventQueued:
		// Only an established session opens data frames.
		state = ChnStateEstablished
	default:
		return nil, fmt.Errorf("core: unknown channel event %d", p[0])
	}
	k := chnKey(binary.LittleEndian.Uint32(p[1:]), binary.LittleEndian.Uint32(p[5:]))
	e := v.sessions[k]
	if e == nil {
		e = &chnEntry{}
		v.sessions[k] = e
	}
	e.state = state
	if p[0] == ChnEventQueued {
		e.push(p[ChnEventLen:])
		return nil, nil
	}
	return p[ChnEventLen:], nil
}

// push copies msg onto the end of the queue, into the buffer of a slot
// past its end when there is one.
func (e *chnEntry) push(msg []byte) {
	var buf []byte
	if n := len(e.queue); n < cap(e.queue) {
		buf = e.queue[:n+1][n][:0]
	}
	e.queue = append(e.queue, append(buf, msg...))
}

// pop takes the queue's first message. The queue shifts down rather than
// re-slicing its front away, and the popped slot moves past its end with
// its buffer.
func (e *chnEntry) pop() ([]byte, bool) {
	if len(e.queue) == 0 {
		return nil, false
	}
	msg := e.queue[0]
	n := copy(e.queue, e.queue[1:])
	e.queue[n] = msg[:0]
	e.queue = e.queue[:n]
	return msg, true
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
// its response reports — queueing the message of an opened data frame —
// and transmits any reply frame the handshake produces. A StatusDenied response surfaces as ErrDenied: the service
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

// ChnRecv takes the next received message of a session, reporting whether
// one was queued. It never costs a domain switch: every message reached
// the view in the delivery response that opened it. A session the view
// does not know is one the service does not hold, and fails.
//
// The message aliases a buffer of the machine's session view: it is valid
// until the next call on any of the machine's stubs, so a caller that
// keeps it, or needs it across another stub call, copies it first.
func (s *OSStub) ChnRecv(init int, sid uint32) ([]byte, bool, error) {
	e := s.chn.sessions[chnKey(uint32(init), sid)]
	if e == nil {
		return nil, false, fmt.Errorf("core: no channel session (init %d, sid %d)", init, sid)
	}
	msg, ok := e.pop()
	return msg, ok, nil
}

// ChnState queries a session's handshake state (ChnStateNone, Dialing or
// Established). Established is terminal, so the view answers it without a
// domain switch; any other state asks the service, and the answer updates
// a session the view already tracks.
func (s *OSStub) ChnState(init int, sid uint32) (uint8, error) {
	e := s.chn.sessions[chnKey(uint32(init), sid)]
	if e != nil && e.state == ChnStateEstablished {
		return ChnStateEstablished, nil
	}
	req := s.encoder().u32(uint32(init)).u32(sid)
	resp, err := s.callSrv(Request{Svc: SvcCHN, Op: OpChnState, Payload: req.b})
	if err != nil {
		return 0, err
	}
	if err := statusErr(resp); err != nil {
		return 0, err
	}
	if len(resp.Payload) != 1 {
		return 0, fmt.Errorf("core: short state response")
	}
	if e != nil {
		e.state = resp.Payload[0]
	}
	return resp.Payload[0], nil
}

// Package chn implements VeilS-Channel, the protected service that gives
// the CVMs of a fleet mutually attested secure sessions.
//
// The paper's remote-user channel (§5.1) binds an ephemeral X25519 key into
// an attestation report so the verifier knows the key belongs to measured
// software. VeilS-Channel applies the same construction symmetrically
// between two CVMs: each side mints a report whose 64-byte ReportData
// carries its session public key (32 bytes) and a transcript hash (32
// bytes) over both machine identities, the session id and both nonces.
// A session is only established after each side has verified the peer's
// PSP signature, VMPL0 provenance, expected measurement (from the fleet
// directory) and transcript binding — so a man in the middle cannot
// substitute keys, an old report cannot be replayed into a new handshake,
// and a mismeasured machine cannot join.
//
// The untrusted OS is the network driver: it shuttles frames between the
// service and the fabric exactly as it relays remote-user messages, able
// to drop traffic but not to forge or replay it — it never holds a session
// key, and every frame it hands in is verified here. It does see the
// plaintext of the sessions it terminates: an opened message is handed to
// the OS that asked for the session, as a NIC driver hands a decrypted
// packet to its stack. Every refusal lands in the machine's observability
// stream as a DeniedChannel event with the peer id as context, so
// cross-CVM attacks leave auditor-visible evidence.
//
// Since obs v4 every frame header also carries fleet trace context (the
// originating request's machine-qualified trace and span refs) as
// authenticated-but-plaintext metadata: the host can read it for routing
// and debugging, but data frames bind the header into the AEAD additional
// data and handshake frames hash it into the attested transcript, so it
// cannot be forged without the peer refusing. NetTx/NetRx breadcrumbs at
// each send and delivery are what fleet exporters join into cross-machine
// flows.
//
// Every dial and every accepted delivery tells the OS what it changed: its
// response leads with an event header (core.ChnEventDialing, Established
// or Queued, plus the session's init and sid), and a Queued event carries
// the opened message itself. The OS learns nothing it could not infer from
// the cleartext frame header and the response status, beyond the message
// it is the recipient of, and its kernel stub keeps a session view from
// these events so that polls and receives cost no domain switch. Two
// properties keep that view exact: every session is created by a response
// that reports it, and Established is terminal — no operation ever moves a
// session out of it.
package chn

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"

	"veil/internal/attest"
	"veil/internal/core"
	"veil/internal/obs"
	"veil/internal/snp"
)

// Frame kinds on the wire (first byte of every fabric payload).
const (
	FrameDial   uint8 = 1
	FrameOffer  uint8 = 2
	FrameAnswer uint8 = 3
	FrameData   uint8 = 4
)

// Session states reported by OpChnState (the wire values live in core,
// next to the op codes).
const (
	StateNone        = core.ChnStateNone
	StateDialing     = core.ChnStateDialing
	StateEstablished = core.ChnStateEstablished
)

const nonceLen = 16

// tcLen is the wire size of one frame's trace context: trace u64 + span
// u64, exactly as laid out in the frame header.
const tcLen = 16

// transcriptLabel domain-separates the handshake hash from every other use
// of SHA-256 in the tree.
const transcriptLabel = "veils-chn-v1"

// Config wires one machine's VeilS-Channel instance.
type Config struct {
	// MachineID is this CVM's fleet identity (also the fabric endpoint).
	MachineID int
	// PSPPub verifies peer reports. In a real deployment every machine
	// trusts the same AMD cert chain; the fleet shares one simulated PSP.
	PSPPub ed25519.PublicKey
	// Rand supplies nonces and session keys (crypto/rand.Reader if nil;
	// the simulation path always passes the machine's seeded reader).
	Rand io.Reader
}

// Stats counts service outcomes.
type Stats struct {
	Dialed      uint64 // sessions initiated here
	Established uint64 // handshakes completed (either role)
	Refused     uint64 // frames refused: bad report, replay, unknown peer
	Sent        uint64 // data messages sealed
	Received    uint64 // data messages opened
	Dropped     uint64 // data frames whose Open failed (replay/reorder/tamper)
}

type session struct {
	peer      int
	initiator bool
	sid       uint32
	state     uint8
	kp        *attest.KeyPair
	nonceA    [nonceLen]byte
	nonceB    [nonceLen]byte
	ch        *attest.Channel

	// dialTC and offerTC are the trace-context bytes the Dial and Offer
	// frames carried; both are hashed into the handshake transcript, so a
	// host that rewrites trace context in flight desynchronises the two
	// sides' transcripts and the report verification refuses.
	dialTC  [tcLen]byte
	offerTC [tcLen]byte
	// lastRxTrace is the most recent trace ref received on this session:
	// replies and echoes propagate it, so a request keeps one trace id as
	// it crosses machines.
	lastRxTrace uint64
}

// Service is one machine's VeilS-Channel instance, running in Dom-SRV.
type Service struct {
	mon *core.Monitor
	cfg Config

	// directory maps peer machine id → expected launch measurement: the
	// fleet owner's trust policy, provisioned like the remote user's
	// expected measurement. A peer absent from the directory, or whose
	// report carries a different measurement, never gets a session.
	directory map[int][32]byte

	sessions map[uint64]*session // key: init<<32 | sid
	nextSid  uint32
	stats    Stats

	// evReply holds the response of a delivery that produced no reply
	// frame. Reusing it is safe for the same reason as replyState: the
	// monitor copies every response out before the next request runs.
	evReply [core.ChnEventLen + 1]byte
	// msgBuf holds the responses of serveSend and deliverData, which seal
	// and open messages straight into it; reused on the same grounds.
	msgBuf []byte
	// aad is the data-frame header a seal or open binds. It lives apart
	// from every frame buffer: crypto/cipher refuses additional data that
	// overlaps the output, and a stack array would escape through the
	// cipher.AEAD interface.
	aad [frameHdrLen]byte
}

// New creates the service and registers it with VeilMon. Like every
// protected service it must exist before launch (it is part of the
// measured image); the peer directory is provisioned separately.
func New(mon *core.Monitor, cfg Config) *Service {
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	s := &Service{
		mon:      mon,
		cfg:      cfg,
		sessions: make(map[uint64]*session),
	}
	mon.RegisterService(core.SvcCHN, s.handle)
	return s
}

// SetDirectory installs the fleet trust policy: which peers exist and what
// measurement each must prove. The map is copied.
func (s *Service) SetDirectory(dir map[int][32]byte) {
	s.directory = make(map[int][32]byte, len(dir))
	for id, m := range dir {
		s.directory[id] = m
	}
}

// Stats returns the service counters.
func (s *Service) Stats() Stats { return s.stats }

func sessKey(init, sid uint32) uint64 { return uint64(init)<<32 | uint64(sid) }

// refuse records one auditor-visible refusal: a DeniedChannel event with
// the peer machine id as context.
func (s *Service) refuse(peer int) (uint32, []byte) {
	s.stats.Refused++
	s.mon.Machine().ObserveDenied(snp.DeniedChannel, uint64(peer))
	return core.StatusDenied, nil
}

// handle serves OS requests arriving in Dom-SRV.
func (s *Service) handle(vcpu int, op uint8, payload []byte) (uint32, []byte) {
	switch op {
	case core.OpChnDial:
		return s.serveDial(payload)
	case core.OpChnDeliver:
		return s.serveDeliver(vcpu, payload)
	case core.OpChnSend:
		return s.serveSend(payload)
	case core.OpChnState:
		return s.serveState(payload)
	}
	return core.StatusError, nil
}

// transcript hashes the public handshake context: both identities, the
// session id, both nonces and the trace context the Dial and Offer frames
// carried. Binding it into each side's ReportData is what kills report
// replay — a report minted for one handshake cannot vouch for any other —
// and extends the same protection to the plaintext trace metadata: a host
// that rewrites trace context in flight leaves the two sides computing
// different transcripts, so the report verification refuses.
func transcript(init, resp, sid uint32, nonceA, nonceB [nonceLen]byte, dialTC, offerTC [tcLen]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte(transcriptLabel))
	var ids [12]byte
	binary.LittleEndian.PutUint32(ids[0:], init)
	binary.LittleEndian.PutUint32(ids[4:], resp)
	binary.LittleEndian.PutUint32(ids[8:], sid)
	h.Write(ids[:])
	h.Write(nonceA[:])
	h.Write(nonceB[:])
	h.Write(dialTC[:])
	h.Write(offerTC[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// tcBytes packs one frame's trace context exactly as the frame header
// lays it out, for transcript hashing.
func tcBytes(trace, span uint64) [tcLen]byte {
	var b [tcLen]byte
	binary.LittleEndian.PutUint64(b[0:], trace)
	binary.LittleEndian.PutUint64(b[8:], span)
	return b
}

// txContext computes the trace context for an outbound frame: span is
// this machine's current causal span (the service invocation doing the
// send), trace the originating request — propagated from the session's
// last received frame when there is one, this machine's own root span
// otherwise. Both zero when no observation sink is attached, so untraced
// runs stay byte-identical on the wire.
func (s *Service) txContext(sess *session) (trace, span uint64) {
	m := s.mon.Machine()
	cur := m.CurrentSpan()
	if cur == 0 {
		return 0, 0
	}
	span = obs.PackTraceRef(s.cfg.MachineID, cur)
	if sess != nil && sess.lastRxTrace != 0 {
		return sess.lastRxTrace, span
	}
	return obs.PackTraceRef(s.cfg.MachineID, m.RootSpan()), span
}

// observeTx records the NetTx breadcrumb for one outbound traced frame.
func (s *Service) observeTx(trace, span uint64) {
	if trace|span != 0 {
		s.mon.Machine().ObserveNetTx(trace, span)
	}
}

// serveDial starts a session: draw the ephemeral key and nonce, remember
// the session, and hand the OS the dial frame to transmit.
func (s *Service) serveDial(payload []byte) (uint32, []byte) {
	if len(payload) != 4 {
		return core.StatusError, nil
	}
	peer := int(binary.LittleEndian.Uint32(payload))
	if _, ok := s.directory[peer]; !ok || peer == s.cfg.MachineID {
		return s.refuse(peer)
	}
	kp, err := attest.NewKeyPair(s.cfg.Rand)
	if err != nil {
		return core.StatusError, nil
	}
	sess := &session{
		peer:      peer,
		initiator: true,
		sid:       s.nextSid,
		state:     StateDialing,
		kp:        kp,
	}
	s.nextSid++
	if _, err := io.ReadFull(s.cfg.Rand, sess.nonceA[:]); err != nil {
		return core.StatusError, nil
	}
	s.sessions[sessKey(uint32(s.cfg.MachineID), sess.sid)] = sess
	s.stats.Dialed++

	trace, span := s.txContext(nil)
	sess.dialTC = tcBytes(trace, span)
	f := frame{
		Kind: FrameDial,
		Init: uint32(s.cfg.MachineID), Resp: uint32(peer), Sid: sess.sid,
		Trace: trace, Span: span,
		Nonce: sess.nonceA,
	}
	s.observeTx(trace, span)
	out := appendEvent(make([]byte, 0, core.ChnEventLen+64), core.ChnEventDialing, uint32(s.cfg.MachineID), sess.sid)
	return core.StatusOK, append(out, f.encode()...)
}

// serveDeliver processes one frame the OS pulled off the fabric.
func (s *Service) serveDeliver(vcpu int, payload []byte) (uint32, []byte) {
	var f frame
	if err := f.decode(payload); err != nil {
		return s.refuse(-1)
	}
	// The NetRx breadcrumb lands before any handling, under the deliver
	// invocation's span: even a frame refused below leaves an arrival
	// record the fleet evidence correlator can join to its trace.
	if f.Trace|f.Span != 0 {
		s.mon.Machine().ObserveNetRx(f.Trace, f.Span)
	}
	switch f.Kind {
	case FrameDial:
		return s.deliverDial(vcpu, &f)
	case FrameOffer:
		return s.deliverOffer(vcpu, &f)
	case FrameAnswer:
		return s.deliverAnswer(&f)
	case FrameData:
		return s.deliverData(&f)
	}
	return s.refuse(-1)
}

// deliverDial is the responder's half-open step: admit only directory
// peers, then mint the report that binds our session key and the
// transcript, and offer it back. A Dial claiming this machine as its
// initiator is a reflection: its session key (init, sid) belongs to this
// machine's own dials, which must never be overwritten.
func (s *Service) deliverDial(vcpu int, f *frame) (uint32, []byte) {
	peer := int(f.Init)
	if int(f.Resp) != s.cfg.MachineID || peer == s.cfg.MachineID {
		return s.refuse(peer)
	}
	if _, ok := s.directory[peer]; !ok {
		return s.refuse(peer)
	}
	key := sessKey(f.Init, f.Sid)
	if _, exists := s.sessions[key]; exists {
		// A replayed dial must not reset an in-progress or established
		// session (that would be a handshake-reset oracle).
		return s.refuse(peer)
	}
	kp, err := attest.NewKeyPair(s.cfg.Rand)
	if err != nil {
		return core.StatusError, nil
	}
	sess := &session{
		peer: peer, sid: f.Sid, state: StateDialing, kp: kp, nonceA: f.Nonce,
	}
	if _, err := io.ReadFull(s.cfg.Rand, sess.nonceB[:]); err != nil {
		return core.StatusError, nil
	}
	sess.dialTC = tcBytes(f.Trace, f.Span)
	if f.Trace != 0 {
		sess.lastRxTrace = f.Trace
	}
	trace, span := s.txContext(sess)
	sess.offerTC = tcBytes(trace, span)
	ts := transcript(f.Init, f.Resp, f.Sid, sess.nonceA, sess.nonceB, sess.dialTC, sess.offerTC)
	report, err := s.mon.ServiceAttestationReport(vcpu, reportData(kp.PublicBytes(), ts))
	if err != nil {
		return core.StatusError, nil
	}
	s.sessions[key] = sess
	reply := frame{
		Kind: FrameOffer,
		Init: f.Init, Resp: f.Resp, Sid: f.Sid,
		Trace: trace, Span: span,
		Nonce: sess.nonceB, Report: report,
	}
	s.observeTx(trace, span)
	return eventReply(core.ChnEventDialing, f.Init, f.Sid, peer, reply.encode())
}

// deliverOffer is the initiator's verification step: check the responder's
// report, derive the channel, and answer with our own report.
func (s *Service) deliverOffer(vcpu int, f *frame) (uint32, []byte) {
	peer := int(f.Resp)
	sess, ok := s.sessions[sessKey(f.Init, f.Sid)]
	if !ok || !sess.initiator || sess.state != StateDialing ||
		int(f.Init) != s.cfg.MachineID || peer != sess.peer {
		return s.refuse(peer)
	}
	sess.nonceB = f.Nonce
	sess.offerTC = tcBytes(f.Trace, f.Span)
	if f.Trace != 0 {
		sess.lastRxTrace = f.Trace
	}
	// The initiator's own stored dialTC — not anything from the wire —
	// goes into the transcript: if the host rewrote either frame's trace
	// context in flight, this transcript no longer matches the one the
	// responder's report vouches for.
	ts := transcript(f.Init, f.Resp, f.Sid, sess.nonceA, sess.nonceB, sess.dialTC, sess.offerTC)
	peerPub, ok := s.verifyPeerReport(peer, f.Report, ts)
	if !ok {
		return s.refuse(peer)
	}
	ch, err := sess.kp.OpenChannel(peerPub, false)
	if err != nil {
		return s.refuse(peer)
	}
	report, err := s.mon.ServiceAttestationReport(vcpu, reportData(sess.kp.PublicBytes(), ts))
	if err != nil {
		return core.StatusError, nil
	}
	sess.ch = ch
	sess.state = StateEstablished
	s.stats.Established++
	trace, span := s.txContext(sess)
	reply := frame{
		Kind: FrameAnswer,
		Init: f.Init, Resp: f.Resp, Sid: f.Sid,
		Trace: trace, Span: span,
		Report: report,
	}
	s.observeTx(trace, span)
	return eventReply(core.ChnEventEstablished, f.Init, f.Sid, peer, reply.encode())
}

// deliverAnswer is the responder's verification step: the mirror of
// deliverOffer, completing the handshake.
func (s *Service) deliverAnswer(f *frame) (uint32, []byte) {
	peer := int(f.Init)
	sess, ok := s.sessions[sessKey(f.Init, f.Sid)]
	if !ok || sess.initiator || sess.state != StateDialing ||
		int(f.Resp) != s.cfg.MachineID {
		return s.refuse(peer)
	}
	// Recomputed from the responder's own stored trace context (what it
	// saw on the Dial, what it sent on the Offer) — the initiator's report
	// only verifies if both sides observed the same bytes.
	ts := transcript(f.Init, f.Resp, f.Sid, sess.nonceA, sess.nonceB, sess.dialTC, sess.offerTC)
	peerPub, ok := s.verifyPeerReport(peer, f.Report, ts)
	if !ok {
		return s.refuse(peer)
	}
	ch, err := sess.kp.OpenChannel(peerPub, true)
	if err != nil {
		return s.refuse(peer)
	}
	if f.Trace != 0 {
		sess.lastRxTrace = f.Trace
	}
	sess.ch = ch
	sess.state = StateEstablished
	s.stats.Established++
	return s.eventOnly(core.ChnEventEstablished, f.Init, f.Sid)
}

// verifyPeerReport runs the full acceptance policy over a peer's report:
// PSP signature, VMPL0 provenance, directory measurement, transcript
// binding. It returns the peer's session public key only when everything
// holds.
func (s *Service) verifyPeerReport(peer int, raw []byte, ts [32]byte) ([]byte, bool) {
	rep, err := attest.VerifyReport(s.cfg.PSPPub, raw)
	if err != nil {
		return nil, false
	}
	if rep.VMPL != snp.VMPL0 {
		return nil, false
	}
	want, ok := s.directory[peer]
	if !ok || rep.Measurement != want {
		return nil, false
	}
	if [32]byte(rep.ReportData[32:]) != ts {
		return nil, false
	}
	return rep.ReportData[:32], true
}

// deliverData opens one sealed application frame straight into its
// response: the Queued event header, then the message. A failed Open —
// replay, reorder, tamper — is refused without advancing the channel
// window, so the next in-order frame still opens.
func (s *Service) deliverData(f *frame) (uint32, []byte) {
	sess, ok := s.sessions[sessKey(f.Init, f.Sid)]
	if !ok || sess.state != StateEstablished {
		return s.refuse(int(f.Init))
	}
	out := appendEvent(s.msgBuf[:0], core.ChnEventQueued, f.Init, f.Sid)
	// The frame header — trace context included — is the AEAD additional
	// data: a host that rewrites any header byte (or grafts the sealed
	// body under a doctored header) fails authentication here.
	f.putHeader(s.aad[:])
	out, err := sess.ch.OpenAAD(out, f.Sealed, s.aad[:])
	if err != nil {
		s.stats.Dropped++
		return s.refuse(sess.peer)
	}
	s.msgBuf = out
	if f.Trace != 0 {
		sess.lastRxTrace = f.Trace
	}
	s.stats.Received++
	return core.StatusOK, out
}

// serveSend seals one application message for an established session.
// Its response — peer u32, then the data frame: header, sealed length,
// sealed body — is built in msgBuf, and the message is sealed straight
// into it: byte for byte what frame.encode would produce.
func (s *Service) serveSend(payload []byte) (uint32, []byte) {
	if len(payload) < 8 {
		return core.StatusError, nil
	}
	init := binary.LittleEndian.Uint32(payload)
	sid := binary.LittleEndian.Uint32(payload[4:])
	msg := payload[8:]
	sess, ok := s.sessions[sessKey(init, sid)]
	if !ok || sess.state != StateEstablished {
		return s.refuse(-1)
	}
	trace, span := s.txContext(sess)
	f := frame{
		Kind: FrameData,
		Init: init, Resp: respOf(init, sess, s.cfg.MachineID), Sid: sid,
		Trace: trace, Span: span,
	}
	f.putHeader(s.aad[:])
	out := binary.LittleEndian.AppendUint32(s.msgBuf[:0], uint32(sess.peer))
	out = append(out, s.aad[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(msg)+sess.ch.Overhead()))
	out, err := sess.ch.SealAAD(out, msg, s.aad[:])
	if err != nil {
		return core.StatusError, nil
	}
	s.msgBuf = out
	s.stats.Sent++
	s.observeTx(trace, span)
	return core.StatusOK, out
}

// respOf reconstructs the frame's responder field: the session key is
// (init, sid), so the responder id is whichever endpoint is not init.
func respOf(init uint32, sess *session, self int) uint32 {
	if int(init) == self {
		return uint32(sess.peer)
	}
	return uint32(self)
}

// serveState reports a session's handshake state.
func (s *Service) serveState(payload []byte) (uint32, []byte) {
	if len(payload) != 8 {
		return core.StatusError, nil
	}
	init := binary.LittleEndian.Uint32(payload)
	sid := binary.LittleEndian.Uint32(payload[4:])
	sess, ok := s.sessions[sessKey(init, sid)]
	if !ok {
		return core.StatusOK, replyState[StateNone]
	}
	return core.StatusOK, replyState[sess.state]
}

// Read-only one-byte replies for OpChnState. Returning them shared is safe
// because the monitor copies every response into the IDCB or the ring
// before the next request runs.
var replyState = [...][]byte{
	StateNone:        {StateNone},
	StateDialing:     {StateDialing},
	StateEstablished: {StateEstablished},
}

// reportData packs (session public key, transcript hash) into the 64-byte
// ReportData layout both sides verify.
func reportData(pub []byte, ts [32]byte) []byte {
	out := make([]byte, 0, attest.ReportDataSize)
	out = append(out, pub...)
	return append(out, ts[:]...)
}

// appendEvent appends the event header every OK dial and delivery response
// leads with: event u8, init u32, sid u32.
func appendEvent(b []byte, ev uint8, init, sid uint32) []byte {
	b = binary.LittleEndian.AppendUint32(append(b, ev), init)
	return binary.LittleEndian.AppendUint32(b, sid)
}

// eventOnly packs an OpChnDeliver response with no reply frame: the event
// header and a zero has-reply flag, in the service's scratch array.
func (s *Service) eventOnly(ev uint8, init, sid uint32) (uint32, []byte) {
	return core.StatusOK, append(appendEvent(s.evReply[:0], ev, init, sid), 0)
}

// eventReply packs an OpChnDeliver response that carries a handshake
// reply: the event header, has-reply 1, destination, frame.
func eventReply(ev uint8, init, sid uint32, dst int, f []byte) (uint32, []byte) {
	out := appendEvent(make([]byte, 0, core.ChnEventLen+5+len(f)), ev, init, sid)
	out = binary.LittleEndian.AppendUint32(append(out, 1), uint32(dst))
	return core.StatusOK, append(out, f...)
}

// frame is the wire format every fabric payload decodes to. Header: kind
// u8, init u32, resp u32, sid u32, trace u64, span u64; then kind-specific
// fields. Trace and Span are the fleet trace context (obs.PackTraceRef
// values): authenticated-but-plaintext metadata the host may read and
// route on but cannot forge — data frames bind the whole header into the
// AEAD additional data, and handshake frames hash it into the transcript
// each side's attestation report vouches for. Both fields are always
// present (zero when tracing is off), so frame sizes — and therefore every
// per-byte cost and fabric draw — are identical with tracing on or off.
type frame struct {
	Kind            uint8
	Init, Resp, Sid uint32
	Trace, Span     uint64         // fleet trace context (0 = untraced)
	Nonce           [nonceLen]byte // Dial: nonceA; Offer: nonceB
	Report          []byte         // Offer, Answer
	Sealed          []byte         // Data
}

const frameHdrLen = 29

// FrameHeaderLen is the fixed frame-header size (kind, endpoint ids,
// trace context). The attack suite computes its byte-patch offsets from
// it, so the constant is part of the package's public contract.
const FrameHeaderLen = frameHdrLen

// putHeader writes the fixed header into hdr[:frameHdrLen]: the prefix of
// every encoded frame, and the additional authenticated data sealing binds
// for data frames.
func (f *frame) putHeader(hdr []byte) {
	hdr[0] = f.Kind
	binary.LittleEndian.PutUint32(hdr[1:], f.Init)
	binary.LittleEndian.PutUint32(hdr[5:], f.Resp)
	binary.LittleEndian.PutUint32(hdr[9:], f.Sid)
	binary.LittleEndian.PutUint64(hdr[13:], f.Trace)
	binary.LittleEndian.PutUint64(hdr[21:], f.Span)
}

// encode builds a frame in a fresh buffer. Handshake frames use it; data
// frames are built in place by serveSend.
func (f *frame) encode() []byte {
	out := make([]byte, frameHdrLen, frameHdrLen+nonceLen+len(f.Report)+len(f.Sealed)+4)
	f.putHeader(out)
	switch f.Kind {
	case FrameDial:
		out = append(out, f.Nonce[:]...)
	case FrameOffer:
		out = append(out, f.Nonce[:]...)
		out = appendBytes(out, f.Report)
	case FrameAnswer:
		out = appendBytes(out, f.Report)
	case FrameData:
		out = appendBytes(out, f.Sealed)
	}
	return out
}

func appendBytes(out, b []byte) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	return append(append(out, n[:]...), b...)
}

// errFrame refuses a fabric payload that is not a well-formed frame.
var errFrame = errors.New("chn: malformed frame")

// decode parses b into f in place, ignoring trailing bytes. Report and
// Sealed alias b (capacity-clipped, so an append cannot reach past them):
// the frame is valid only as long as b is, and a handler reads the fields
// without keeping them.
func (f *frame) decode(b []byte) error {
	if len(b) < frameHdrLen {
		return errFrame
	}
	*f = frame{
		Kind:  b[0],
		Init:  binary.LittleEndian.Uint32(b[1:]),
		Resp:  binary.LittleEndian.Uint32(b[5:]),
		Sid:   binary.LittleEndian.Uint32(b[9:]),
		Trace: binary.LittleEndian.Uint64(b[13:]),
		Span:  binary.LittleEndian.Uint64(b[21:]),
	}
	rest := b[frameHdrLen:]
	ok := false
	switch f.Kind {
	case FrameDial:
		_, ok = takeNonce(&f.Nonce, rest)
	case FrameOffer:
		if rest, ok = takeNonce(&f.Nonce, rest); ok {
			f.Report, ok = takeBytes(rest)
		}
	case FrameAnswer:
		f.Report, ok = takeBytes(rest)
	case FrameData:
		f.Sealed, ok = takeBytes(rest)
	}
	if !ok {
		return errFrame
	}
	return nil
}

// takeNonce copies a nonce off the front of b and returns the rest.
func takeNonce(n *[nonceLen]byte, b []byte) ([]byte, bool) {
	if len(b) < nonceLen {
		return nil, false
	}
	copy(n[:], b)
	return b[nonceLen:], true
}

// takeBytes returns the length-prefixed field at the front of b, aliasing b.
func takeBytes(b []byte) ([]byte, bool) {
	if len(b) < 4 {
		return nil, false
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if n > uint64(len(b)-4) {
		return nil, false
	}
	return b[4 : 4+n : 4+n], true
}

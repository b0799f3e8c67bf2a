package chn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"veil/internal/attest"
	"veil/internal/core"
	"veil/internal/snp"
)

// decodeFrame is the reference decoder: it copies every variable-length
// field out of b into a fresh frame. The service decodes in place with
// (*frame).decode, which must accept exactly the inputs this accepts and
// produce equal fields.
func decodeFrame(b []byte) (*frame, error) {
	if len(b) < frameHdrLen {
		return nil, fmt.Errorf("chn: frame truncated (%d bytes)", len(b))
	}
	f := &frame{
		Kind:  b[0],
		Init:  binary.LittleEndian.Uint32(b[1:]),
		Resp:  binary.LittleEndian.Uint32(b[5:]),
		Sid:   binary.LittleEndian.Uint32(b[9:]),
		Trace: binary.LittleEndian.Uint64(b[13:]),
		Span:  binary.LittleEndian.Uint64(b[21:]),
	}
	rest := b[frameHdrLen:]
	takeNonce := func() error {
		if len(rest) < nonceLen {
			return fmt.Errorf("chn: nonce truncated")
		}
		copy(f.Nonce[:], rest)
		rest = rest[nonceLen:]
		return nil
	}
	takeBytes := func() ([]byte, error) {
		if len(rest) < 4 {
			return nil, fmt.Errorf("chn: length truncated")
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if n < 0 || n > len(rest) {
			return nil, fmt.Errorf("chn: field length %d corrupt", n)
		}
		v := append([]byte(nil), rest[:n]...)
		rest = rest[n:]
		return v, nil
	}
	var err error
	switch f.Kind {
	case FrameDial:
		err = takeNonce()
	case FrameOffer:
		if err = takeNonce(); err == nil {
			f.Report, err = takeBytes()
		}
	case FrameAnswer:
		f.Report, err = takeBytes()
	case FrameData:
		f.Sealed, err = takeBytes()
	default:
		err = fmt.Errorf("chn: unknown frame kind %d", f.Kind)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// sameFrame reports whether two decoded frames carry equal fields; a nil
// and an empty field are equal.
func sameFrame(a, b *frame) bool {
	return a.Kind == b.Kind && a.Init == b.Init && a.Resp == b.Resp && a.Sid == b.Sid &&
		a.Trace == b.Trace && a.Span == b.Span && a.Nonce == b.Nonce &&
		bytes.Equal(a.Report, b.Report) && bytes.Equal(a.Sealed, b.Sealed)
}

// checkDecoders runs both decoders over data and fails unless they agree:
// both refuse, or both accept with equal fields. It returns the reference
// decoding (nil when refused).
func checkDecoders(t *testing.T, data []byte) *frame {
	t.Helper()
	ref, refErr := decodeFrame(data)
	var got frame
	err := got.decode(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("in-place decode err %v, reference err %v on %x", err, refErr, data)
	}
	if refErr != nil {
		return nil
	}
	if !sameFrame(&got, ref) {
		t.Fatalf("in-place decode differs from the reference:\n%+v\n%+v", got, *ref)
	}
	return ref
}

// roundTripFrames is one well-formed frame of every kind.
func roundTripFrames() []frame {
	var nonce [nonceLen]byte
	for i := range nonce {
		nonce[i] = byte(i + 1)
	}
	return []frame{
		{Kind: FrameDial, Init: 0, Resp: 2, Sid: 7, Trace: 0x10001, Span: 0x10002, Nonce: nonce},
		{Kind: FrameOffer, Init: 1, Resp: 0, Sid: 0, Trace: 0x20005, Span: 0x20009, Nonce: nonce, Report: []byte("report-bytes")},
		{Kind: FrameAnswer, Init: 3, Resp: 1, Sid: 9, Report: []byte{}},
		{Kind: FrameData, Init: 2, Resp: 3, Sid: 1, Trace: 1 << 48, Span: 0xFFFF_FFFF_FFFF, Sealed: bytes.Repeat([]byte{0xAB}, 80)},
	}
}

// corruptFrames are byte strings the decoder must refuse: truncations at
// each field, an unknown kind, and a length field pointing past the buffer.
func corruptFrames() map[string][]byte {
	f := frame{Kind: FrameOffer, Init: 1, Resp: 2, Sid: 3, Report: []byte("r")}
	enc := f.encode()
	cases := map[string][]byte{
		"empty":            {},
		"short header":     enc[:frameHdrLen-1],
		"missing nonce":    enc[:frameHdrLen+4],
		"length truncated": enc[:frameHdrLen+nonceLen+2],
		"unknown kind":     append([]byte{99}, enc[1:]...),
	}
	overlong := append([]byte(nil), enc...)
	overlong[frameHdrLen+nonceLen] = 0xFF
	cases["corrupt length"] = overlong
	return cases
}

// The wire format is what the hostile fabric tampers with (the attack
// suite patches frames by byte offset), so the codec itself needs direct
// coverage: every kind round-trips, and truncation or corrupt lengths are
// errors rather than panics or silent misparses.
func TestFrameRoundTrip(t *testing.T) {
	for _, want := range roundTripFrames() {
		got := checkDecoders(t, want.encode())
		if got == nil {
			t.Fatalf("kind %d: decode refused its own encoding", want.Kind)
		}
		if got.Kind != want.Kind || got.Init != want.Init || got.Resp != want.Resp || got.Sid != want.Sid {
			t.Fatalf("kind %d: header mismatch: %+v", want.Kind, got)
		}
		if got.Trace != want.Trace || got.Span != want.Span {
			t.Fatalf("kind %d: trace context mismatch: %+v", want.Kind, got)
		}
		if got.Nonce != want.Nonce && (want.Kind == FrameDial || want.Kind == FrameOffer) {
			t.Fatalf("kind %d: nonce mismatch", want.Kind)
		}
		if !bytes.Equal(got.Report, want.Report) || !bytes.Equal(got.Sealed, want.Sealed) {
			t.Fatalf("kind %d: body mismatch", want.Kind)
		}
	}
}

func TestFrameDecodeRejectsCorrupt(t *testing.T) {
	for name, b := range corruptFrames() {
		if _, err := decodeFrame(b); err == nil {
			t.Errorf("%s: decode accepted %d bytes", name, len(b))
		}
		var f frame
		if err := f.decode(b); err == nil {
			t.Errorf("%s: in-place decode accepted %d bytes", name, len(b))
		}
	}
}

// FuzzChnFrame feeds arbitrary fabric bytes to the frame decoders. The
// host controls every byte on the wire, so decoding must never panic; the
// in-place decoder the service runs must accept exactly what the
// reference accepts, with equal fields; and a frame they accept must be
// exactly what its canonical encoding says: the re-encoding is a prefix
// of the input (the decoders ignore trailing bytes) and decodes back to an
// equal frame.
func FuzzChnFrame(f *testing.F) {
	for _, fr := range roundTripFrames() {
		f.Add(fr.encode())
	}
	for _, b := range corruptFrames() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := checkDecoders(t, data)
		if got == nil {
			return
		}
		enc := got.encode()
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("re-encoding %x is not a prefix of the accepted input %x", enc, data)
		}
		again, err := decodeFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded frame refused: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("re-decoded frame differs:\n%+v\n%+v", got, again)
		}
	})
}

// The offerReportOffset constant the attack suite patches frames at must
// match the real layout: header, nonce, then the 4-byte report length.
func TestOfferReportLayout(t *testing.T) {
	f := frame{Kind: FrameOffer, Init: 0, Resp: 1, Sid: 0, Report: []byte("xyz")}
	enc := f.encode()
	if off := frameHdrLen + nonceLen + 4; !bytes.Equal(enc[off:], []byte("xyz")) {
		t.Fatalf("report not at header+nonce+len: %x", enc)
	}
}

// newTestService builds a VeilS-Channel instance over a bare monitor: no
// boot, no recorder, so frames carry zero trace context.
func newTestService(t *testing.T, id int) *Service {
	t.Helper()
	const mem = 16 << 20
	lay, err := core.DefaultLayout(mem, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := core.NewMonitor(snp.NewMachine(snp.Config{MemBytes: mem, VCPUs: 1}), nil,
		core.Config{Layout: lay, UNTContext: func(int) snp.Context { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	return New(mon, Config{MachineID: id})
}

// The data frame serveSend builds in place is byte for byte what
// frame.encode makes of the same frame, its sealed body is what a fresh
// channel seals under the frame header, and it opens on the peer into the
// delivery response. Several messages of different sizes go through the
// same send and response buffers.
func TestSendFrameMatchesEncode(t *testing.T) {
	a, b := newTestService(t, 0), newTestService(t, 1)
	ka, _ := attest.NewKeyPair(nil)
	kb, _ := attest.NewKeyPair(nil)
	chA, _ := ka.OpenChannel(kb.PublicBytes(), false)
	chB, _ := kb.OpenChannel(ka.PublicBytes(), true)
	ref, _ := ka.OpenChannel(kb.PublicBytes(), false)
	const init, sid = 0, 5
	a.sessions[sessKey(init, sid)] = &session{peer: 1, initiator: true, sid: sid, state: StateEstablished, ch: chA}
	b.sessions[sessKey(init, sid)] = &session{peer: 0, sid: sid, state: StateEstablished, ch: chB}
	key := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, init), sid)

	msgs := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte("long message "), 40), []byte("last")}
	var frames [][]byte
	for _, msg := range msgs {
		status, out := a.serveSend(append(append([]byte(nil), key...), msg...))
		if status != core.StatusOK {
			t.Fatalf("serveSend(%q): status %d", msg, status)
		}
		if peer := binary.LittleEndian.Uint32(out); peer != 1 {
			t.Fatalf("serveSend addressed machine %d, want 1", peer)
		}
		want := frame{Kind: FrameData, Init: init, Resp: 1, Sid: sid}
		var hdr [frameHdrLen]byte
		want.putHeader(hdr[:])
		sealed, err := ref.SealAAD(nil, msg, hdr[:])
		if err != nil {
			t.Fatal(err)
		}
		want.Sealed = sealed
		if enc := want.encode(); !bytes.Equal(out[4:], enc) {
			t.Fatalf("in-place data frame for %q:\n%x\nframe.encode:\n%x", msg, out[4:], enc)
		}
		frames = append(frames, append([]byte(nil), out[4:]...))
	}

	// Each delivery answers with the Queued event for the session and
	// then the opened message, built in the same response buffer every
	// time. A replayed frame is refused and opens nothing, and the next
	// in-order frame still opens.
	for i, fr := range frames {
		status, out := b.serveDeliver(0, fr)
		want := appendEvent(nil, core.ChnEventQueued, init, sid)
		if status != core.StatusOK || !bytes.Equal(out, append(want, msgs[i]...)) {
			t.Fatalf("serveDeliver(frame %d) = %d %q, want the Queued event and %q", i, status, out, msgs[i])
		}
		if i == 1 {
			if status, out := b.serveDeliver(0, frames[0]); status != core.StatusDenied || out != nil {
				t.Fatalf("replayed frame 0 answered %d %q, want a refusal", status, out)
			}
		}
	}
	if st := b.Stats(); st.Received != uint64(len(msgs)) || st.Refused != 1 || st.Dropped != 1 {
		t.Fatalf("peer stats %+v", st)
	}
}

package chn

import (
	"bytes"
	"reflect"
	"testing"
)

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
		got, err := decodeFrame(want.encode())
		if err != nil {
			t.Fatalf("kind %d: decode: %v", want.Kind, err)
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
	}
}

// FuzzChnFrame feeds arbitrary fabric bytes to the frame decoder. The
// host controls every byte on the wire, so decoding must never panic, and
// a frame it accepts must be exactly what its canonical encoding says:
// the re-encoding is a prefix of the input (the decoder ignores trailing
// bytes) and decodes back to an equal frame.
func FuzzChnFrame(f *testing.F) {
	for _, fr := range roundTripFrames() {
		f.Add(fr.encode())
	}
	for _, b := range corruptFrames() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeFrame(data)
		if err != nil {
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

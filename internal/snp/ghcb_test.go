package snp

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refMarshal is the full-page reference encoder: the header and the whole
// payload area, whatever SwScratch says.
func refMarshal(g *GHCB, buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:], g.ExitCode)
	binary.LittleEndian.PutUint64(buf[8:], g.ExitInfo1)
	binary.LittleEndian.PutUint64(buf[16:], g.ExitInfo2)
	binary.LittleEndian.PutUint64(buf[24:], g.SwScratch)
	copy(buf[ghcbHeaderSize:ghcbSize], g.Payload[:])
}

// refUnmarshal is the full-page reference decoder.
func refUnmarshal(g *GHCB, buf []byte) {
	g.ExitCode = binary.LittleEndian.Uint64(buf[0:])
	g.ExitInfo1 = binary.LittleEndian.Uint64(buf[8:])
	g.ExitInfo2 = binary.LittleEndian.Uint64(buf[16:])
	g.SwScratch = binary.LittleEndian.Uint64(buf[24:])
	copy(g.Payload[:], buf[ghcbHeaderSize:ghcbSize])
}

// ghcbScratchValues are the SwScratch edge cases: empty, one byte, exactly
// the payload area, one past it, and the largest value a host can write.
var ghcbScratchValues = []uint64{0, 1, GHCBPayloadSize, GHCBPayloadSize + 1, math.MaxUint64}

// checkGHCBDecode decodes the host-written page bytes with unmarshal and
// checks the result against the reference: the same header, the same
// Payload[:n] with n = min(SwScratch, GHCBPayloadSize), and nothing written
// past n.
func checkGHCBDecode(t *testing.T, page []byte) {
	t.Helper()
	var got, want GHCB
	got.unmarshal(page)
	refUnmarshal(&want, page)
	if got.ExitCode != want.ExitCode || got.ExitInfo1 != want.ExitInfo1 ||
		got.ExitInfo2 != want.ExitInfo2 || got.SwScratch != want.SwScratch {
		t.Fatalf("header = %#x/%#x/%#x/%#x, reference %#x/%#x/%#x/%#x",
			got.ExitCode, got.ExitInfo1, got.ExitInfo2, got.SwScratch,
			want.ExitCode, want.ExitInfo1, want.ExitInfo2, want.SwScratch)
	}
	n := got.payloadLen()
	if n < 0 || n > GHCBPayloadSize || uint64(n) != min(want.SwScratch, GHCBPayloadSize) {
		t.Fatalf("payload length %d for SwScratch %#x", n, want.SwScratch)
	}
	if !bytes.Equal(got.Payload[:n], want.Payload[:n]) {
		t.Fatalf("Payload[:%d] differs from the reference", n)
	}
	if !bytes.Equal(got.Payload[n:], make([]byte, GHCBPayloadSize-n)) {
		t.Fatalf("decode wrote payload bytes past %d", n)
	}
}

func TestGHCBDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	scratch := append([]uint64(nil), ghcbScratchValues...)
	for i := 0; i < 32; i++ {
		scratch = append(scratch, uint64(r.Intn(GHCBPayloadSize+64)), r.Uint64())
	}
	for _, sw := range scratch {
		in := GHCB{ExitCode: r.Uint64(), ExitInfo1: r.Uint64(), ExitInfo2: r.Uint64(), SwScratch: sw}
		r.Read(in.Payload[:])
		n := in.payloadLen()

		// Encode over a page of stale bytes: the header and Payload[:n]
		// match the reference encoding, and every byte past n is left as
		// it was.
		stale := make([]byte, ghcbSize)
		r.Read(stale)
		got := append([]byte(nil), stale...)
		in.marshal(got)
		want := make([]byte, ghcbSize)
		refMarshal(&in, want)
		if end := ghcbHeaderSize + n; !bytes.Equal(got[:end], want[:end]) {
			t.Fatalf("SwScratch %#x: header or Payload[:%d] differs from the reference encoding", sw, n)
		}
		if end := ghcbHeaderSize + n; !bytes.Equal(got[end:], stale[end:]) {
			t.Fatalf("SwScratch %#x: encode wrote past payload byte %d", sw, n)
		}

		// Decode both the reference page and the stale-tailed page.
		checkGHCBDecode(t, want)
		checkGHCBDecode(t, got)
		var back GHCB
		back.unmarshal(got)
		if back.SwScratch != sw || !bytes.Equal(back.Payload[:n], in.Payload[:n]) {
			t.Fatalf("SwScratch %#x: round trip lost header or payload", sw)
		}
	}
}

// FuzzGHCB feeds arbitrary host-written page bytes to the GHCB decode.
func FuzzGHCB(f *testing.F) {
	r := rand.New(rand.NewSource(15))
	for _, sw := range ghcbScratchValues {
		page := make([]byte, ghcbSize)
		r.Read(page)
		binary.LittleEndian.PutUint64(page[24:], sw)
		f.Add(page)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The page is always ghcbSize bytes; the input fills its prefix.
		page := make([]byte, ghcbSize)
		copy(page, data)
		checkGHCBDecode(t, page)
	})
}

func TestGHCBRoundTripMovesOnlyPayloadPrefix(t *testing.T) {
	m := testMachine(t, 2, 0)
	stale := &GHCB{SwScratch: GHCBPayloadSize}
	for i := range stale.Payload {
		stale.Payload[i] = 0xaa
	}
	if err := m.GuestWriteGHCB(VMPL0, CPL0, 0, stale); err != nil {
		t.Fatal(err)
	}
	in := &GHCB{ExitCode: 1, SwScratch: 3}
	copy(in.Payload[:], "abcdef")
	if err := m.GuestWriteGHCB(VMPL0, CPL0, 0, in); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, ghcbSize)
	if err := m.HVReadPhys(0, page); err != nil {
		t.Fatal(err)
	}
	if got := page[ghcbHeaderSize : ghcbHeaderSize+4]; string(got) != "abc\xaa" {
		t.Fatalf("page payload = %q, want the 3 written bytes then stale data", got)
	}
	var out GHCB
	if err := m.HVReadGHCB(0, &out); err != nil {
		t.Fatal(err)
	}
	if string(out.Payload[:4]) != "abc\x00" {
		t.Fatalf("host decode = %q, want only the 3 payload bytes", out.Payload[:4])
	}
}

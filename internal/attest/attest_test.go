package attest

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"

	"veil/internal/snp"
)

// detRand is a deterministic randomness source for tests.
type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

func newDetRand(seed int64) detRand { return detRand{r: rand.New(rand.NewSource(seed))} }

func TestReportSignVerify(t *testing.T) {
	psp, err := NewPSP(newDetRand(1))
	if err != nil {
		t.Fatal(err)
	}
	meas := sha256.Sum256([]byte("boot image"))
	data := []byte("dh-public-key-material")
	raw, err := psp.SignReport(meas, snp.VMPL0, data)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyReport(psp.PublicKey(), raw)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measurement != meas {
		t.Fatal("measurement mismatch")
	}
	if rep.VMPL != snp.VMPL0 {
		t.Fatalf("VMPL = %v, want VMPL0", rep.VMPL)
	}
	if !bytes.Equal(rep.ReportData[:len(data)], data) {
		t.Fatal("report data mismatch")
	}
}

func TestReportTamperDetected(t *testing.T) {
	psp, _ := NewPSP(newDetRand(2))
	meas := sha256.Sum256([]byte("img"))
	raw, err := psp.SignReport(meas, snp.VMPL3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A compromised OS cannot upgrade its VMPL field: any bit flip breaks
	// the signature.
	for _, idx := range []int{0, 32, 40, len(raw) - 1} {
		mut := bytes.Clone(raw)
		mut[idx] ^= 1
		if _, err := VerifyReport(psp.PublicKey(), mut); err == nil {
			t.Fatalf("tampered byte %d accepted", idx)
		}
	}
	if _, err := VerifyReport(psp.PublicKey(), raw[:10]); err == nil {
		t.Fatal("truncated report accepted")
	}
}

func TestReportDataTooLarge(t *testing.T) {
	psp, _ := NewPSP(newDetRand(3))
	if _, err := psp.SignReport([32]byte{}, snp.VMPL0, make([]byte, ReportDataSize+1)); err == nil {
		t.Fatal("oversized report data accepted")
	}
}

func TestMeasureRegionsOrderAndAddressSensitive(t *testing.T) {
	a := Region{Phys: 0x1000, Data: []byte("aaaa")}
	b := Region{Phys: 0x2000, Data: []byte("bbbb")}
	m1 := MeasureRegions([]Region{a, b})
	m2 := MeasureRegions([]Region{b, a})
	if m1 == m2 {
		t.Fatal("measurement must depend on region order")
	}
	aMoved := Region{Phys: 0x3000, Data: []byte("aaaa")}
	if MeasureRegions([]Region{a, b}) == MeasureRegions([]Region{aMoved, b}) {
		t.Fatal("measurement must depend on load addresses")
	}
}

func TestSecureChannelRoundTrip(t *testing.T) {
	mon, err := NewKeyPair(newDetRand(4))
	if err != nil {
		t.Fatal(err)
	}
	user, err := NewKeyPair(newDetRand(5))
	if err != nil {
		t.Fatal(err)
	}
	monCh, err := mon.OpenChannel(user.PublicBytes(), true)
	if err != nil {
		t.Fatal(err)
	}
	userCh, err := user.OpenChannel(mon.PublicBytes(), false)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := monCh.Seal([]byte("log batch 1"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := userCh.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "log batch 1" {
		t.Fatalf("got %q", got)
	}
	// And the reverse direction.
	s2, err := userCh.Seal([]byte("ack"))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := monCh.Open(s2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != "ack" {
		t.Fatalf("got %q", got2)
	}
}

func TestSecureChannelReplayRejected(t *testing.T) {
	mon, _ := NewKeyPair(newDetRand(6))
	user, _ := NewKeyPair(newDetRand(7))
	monCh, _ := mon.OpenChannel(user.PublicBytes(), true)
	userCh, _ := user.OpenChannel(mon.PublicBytes(), false)

	s1, _ := monCh.Seal([]byte("first"))
	if _, err := userCh.Open(s1); err != nil {
		t.Fatal(err)
	}
	// Replaying the same ciphertext must fail (sequence moved on).
	if _, err := userCh.Open(s1); err == nil {
		t.Fatal("replay accepted")
	}
}

func TestSecureChannelTamperRejected(t *testing.T) {
	mon, _ := NewKeyPair(newDetRand(8))
	user, _ := NewKeyPair(newDetRand(9))
	monCh, _ := mon.OpenChannel(user.PublicBytes(), true)
	userCh, _ := user.OpenChannel(mon.PublicBytes(), false)

	s, _ := monCh.Seal([]byte("payload"))
	s[0] ^= 0xFF
	if _, err := userCh.Open(s); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
}

func TestChannelDirectionsDoNotCollide(t *testing.T) {
	mon, _ := NewKeyPair(newDetRand(10))
	user, _ := NewKeyPair(newDetRand(11))
	monCh, _ := mon.OpenChannel(user.PublicBytes(), true)
	userCh, _ := user.OpenChannel(mon.PublicBytes(), false)

	// Same plaintext, same sequence number, opposite directions: the
	// ciphertexts must differ and must not decrypt as each other's.
	a, _ := monCh.Seal([]byte("x"))
	b, _ := userCh.Seal([]byte("x"))
	if bytes.Equal(a, b) {
		t.Fatal("directional nonces collided")
	}
	if _, err := userCh.Open(b); err == nil {
		t.Fatal("message from wrong direction accepted")
	}
}

func TestChannelOutOfOrderRejectedWithoutWindowAdvance(t *testing.T) {
	mon, _ := NewKeyPair(newDetRand(12))
	user, _ := NewKeyPair(newDetRand(13))
	monCh, _ := mon.OpenChannel(user.PublicBytes(), true)
	userCh, _ := user.OpenChannel(mon.PublicBytes(), false)

	first, _ := monCh.Seal([]byte("first"))
	second, _ := monCh.Seal([]byte("second"))

	// Delivering the second message first (a reordered network) must fail
	// and must not advance the receive window...
	if _, err := userCh.Open(second); err == nil {
		t.Fatal("out-of-order ciphertext accepted")
	}
	if got := userCh.recvSeq; got != 0 {
		t.Fatalf("failed Open advanced recvSeq to %d", got)
	}
	// ...so the true next message still opens, and then the deferred one.
	if got, err := userCh.Open(first); err != nil || string(got) != "first" {
		t.Fatalf("in-order open after reorder refusal: %v %q", err, got)
	}
	if got, err := userCh.Open(second); err != nil || string(got) != "second" {
		t.Fatalf("second open: %v %q", err, got)
	}
}

func TestChannelReplayDoesNotAdvanceWindow(t *testing.T) {
	mon, _ := NewKeyPair(newDetRand(14))
	user, _ := NewKeyPair(newDetRand(15))
	monCh, _ := mon.OpenChannel(user.PublicBytes(), true)
	userCh, _ := user.OpenChannel(mon.PublicBytes(), false)

	s1, _ := monCh.Seal([]byte("one"))
	s2, _ := monCh.Seal([]byte("two"))
	if _, err := userCh.Open(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := userCh.Open(s1); err == nil {
		t.Fatal("replay accepted")
	}
	if got := userCh.recvSeq; got != 1 {
		t.Fatalf("replayed Open moved recvSeq to %d", got)
	}
	if got, err := userCh.Open(s2); err != nil || string(got) != "two" {
		t.Fatalf("stream did not survive replay attempt: %v %q", err, got)
	}
}

func TestChannelSendCounterOverflowGuard(t *testing.T) {
	mon, _ := NewKeyPair(newDetRand(16))
	user, _ := NewKeyPair(newDetRand(17))
	monCh, _ := mon.OpenChannel(user.PublicBytes(), true)

	monCh.sendSeq = maxSeq - 1
	if _, err := monCh.Seal([]byte("last")); err != nil {
		t.Fatalf("seal at ceiling-1: %v", err)
	}
	if _, err := monCh.Seal([]byte("past")); !errors.Is(err, ErrChannelExhausted) {
		t.Fatalf("seal past 2^63 returned %v, want ErrChannelExhausted", err)
	}
	if got := monCh.sendSeq; got != maxSeq {
		t.Fatalf("refused Seal consumed a sequence number: %d", got)
	}
}

func TestChannelAADBindsHeader(t *testing.T) {
	mon, _ := NewKeyPair(newDetRand(18))
	user, _ := NewKeyPair(newDetRand(19))
	monCh, _ := mon.OpenChannel(user.PublicBytes(), true)
	userCh, _ := user.OpenChannel(mon.PublicBytes(), false)

	hdr := []byte("frame-header: trace ctx")
	sealed, err := monCh.SealAAD(nil, []byte("payload"), hdr)
	if err != nil {
		t.Fatal(err)
	}

	// A host that rewrites the plaintext header must fail authentication,
	// and the refused open must not advance the replay window.
	bad := append([]byte(nil), hdr...)
	bad[0] ^= 0xFF
	if _, err := userCh.OpenAAD(nil, sealed, bad); err == nil {
		t.Fatal("doctored AAD accepted")
	}
	if got := userCh.recvSeq; got != 0 {
		t.Fatalf("refused OpenAAD moved recvSeq to %d", got)
	}

	// Omitting the AAD entirely must fail too (nil is a distinct binding).
	if _, err := userCh.OpenAAD(nil, sealed, nil); err == nil {
		t.Fatal("sealed-with-AAD frame opened without AAD")
	}
	if got, err := userCh.OpenAAD(nil, sealed, hdr); err != nil || string(got) != "payload" {
		t.Fatalf("honest AAD open failed after refusals: %v %q", err, got)
	}

	// Seal/Open remain the nil-AAD case of the same primitive.
	s2, err := monCh.Seal([]byte("plain"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := userCh.OpenAAD(nil, s2, nil); err != nil || string(got) != "plain" {
		t.Fatalf("Seal/OpenAAD(nil) mismatch: %v %q", err, got)
	}
}

// SealAAD and OpenAAD append to dst: sealing after a prefix the caller has
// already written leaves the prefix intact, and the appended bytes are
// exactly what a fresh Seal produces.
func TestChannelSealAppendsAfterPrefix(t *testing.T) {
	mon, _ := NewKeyPair(newDetRand(20))
	user, _ := NewKeyPair(newDetRand(21))
	monCh, _ := mon.OpenChannel(user.PublicBytes(), true)
	userCh, _ := user.OpenChannel(mon.PublicBytes(), false)
	refMon, _ := mon.OpenChannel(user.PublicBytes(), true)

	hdr := []byte("frame-header")
	prefix := []byte("peer+header+len:")
	buf := make([]byte, len(prefix), 256)
	copy(buf, prefix)
	out, err := monCh.SealAAD(buf, []byte("payload"), hdr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) {
		t.Fatalf("sealing clobbered the prefix: %q", out[:len(prefix)])
	}
	if &out[0] != &buf[0] {
		t.Fatal("sealing into a buffer with room reallocated it")
	}
	if got, want := len(out)-len(prefix), len("payload")+monCh.Overhead(); got != want {
		t.Fatalf("sealed %d bytes, want plaintext plus Overhead() = %d", got, want)
	}
	ref, err := refMon.SealAAD(nil, []byte("payload"), hdr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[len(prefix):], ref) {
		t.Fatal("sealing after a prefix produced different ciphertext than a fresh Seal")
	}

	opened, err := userCh.OpenAAD([]byte("inbox:"), out[len(prefix):], hdr)
	if err != nil || string(opened) != "inbox:payload" {
		t.Fatalf("OpenAAD after a prefix = %q, %v", opened, err)
	}
}

// A refused OpenAAD into a reused buffer does not advance the receive
// window, and the next in-order frame still opens into that same buffer.
func TestChannelRefusedOpenReusesBuffer(t *testing.T) {
	mon, _ := NewKeyPair(newDetRand(22))
	user, _ := NewKeyPair(newDetRand(23))
	monCh, _ := mon.OpenChannel(user.PublicBytes(), true)
	userCh, _ := user.OpenChannel(mon.PublicBytes(), false)

	hdr := []byte("hdr")
	first, _ := monCh.SealAAD(nil, []byte("first"), hdr)
	second, _ := monCh.SealAAD(nil, []byte("second"), hdr)
	buf := make([]byte, 0, 64)

	if _, err := userCh.OpenAAD(buf, second, hdr); err == nil {
		t.Fatal("out-of-order frame opened")
	}
	tampered := append([]byte(nil), first...)
	tampered[0] ^= 1
	if _, err := userCh.OpenAAD(buf, tampered, hdr); err == nil {
		t.Fatal("tampered frame opened")
	}
	if got := userCh.recvSeq; got != 0 {
		t.Fatalf("refused opens moved recvSeq to %d", got)
	}
	got, err := userCh.OpenAAD(buf, first, hdr)
	if err != nil || string(got) != "first" {
		t.Fatalf("in-order open after refusals = %q, %v", got, err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("the in-order open did not reuse the buffer")
	}
	got, err = userCh.OpenAAD(got[:0], second, hdr)
	if err != nil || string(got) != "second" || &got[0] != &buf[:1][0] {
		t.Fatalf("second open into the same buffer = %q, %v", got, err)
	}
}

package cvm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"veil/internal/core"
	"veil/internal/fabric"
	"veil/internal/obs"
	"veil/internal/services/chn"
	"veil/internal/snp"
)

// rawChn is the test-side reference for the stub's session view: one
// plain VeilS-Channel round trip that the view neither answers nor sees.
func rawChn(t testing.TB, st *core.OSStub, op uint8, init int, sid uint32) core.Response {
	t.Helper()
	var key [8]byte
	binary.LittleEndian.PutUint32(key[0:], uint32(init))
	binary.LittleEndian.PutUint32(key[4:], sid)
	resp, err := st.CallSrv(core.Request{Svc: core.SvcCHN, Op: op, Payload: key[:]})
	if err != nil {
		t.Fatalf("raw op %d on (init %d, sid %d): %v", op, init, sid, err)
	}
	return resp
}

// checkChnView asserts that st's session view agrees with the service on
// one session: ChnState equals a raw OpChnState, and after draining with
// ChnRecv a raw OpChnRecv finds the inbox empty (the view never hides a
// message). A session the service does not know must fail both ways.
func checkChnView(t testing.TB, st *core.OSStub, init int, sid uint32) {
	t.Helper()
	state, err := st.ChnState(init, sid)
	if err != nil {
		t.Fatalf("ChnState(%d, %d): %v", init, sid, err)
	}
	if raw := rawChn(t, st, core.OpChnState, init, sid); raw.Status != core.StatusOK || !bytes.Equal(raw.Payload, []byte{state}) {
		t.Fatalf("(init %d, sid %d): view state %d, service says status %d %v", init, sid, state, raw.Status, raw.Payload)
	}
	var recvErr error
	for {
		var ok bool
		if _, ok, recvErr = st.ChnRecv(init, sid); recvErr != nil || !ok {
			break
		}
	}
	raw := rawChn(t, st, core.OpChnRecv, init, sid)
	if (recvErr != nil) != (raw.Status != core.StatusOK) {
		t.Fatalf("(init %d, sid %d): ChnRecv err %v, service status %d", init, sid, recvErr, raw.Status)
	}
	if raw.Status == core.StatusOK && (len(raw.Payload) == 0 || raw.Payload[0] != 0) {
		t.Fatalf("(init %d, sid %d): the view reported an empty inbox the service still holds a message in", init, sid)
	}
}

// After an honest run every machine's view agrees with its service on
// every session it belongs to.
func TestChnViewMatchesServiceAfterEcho(t *testing.T) {
	f, err := BootFleet(testFleetOptions(3, 29))
	if err != nil {
		t.Fatal(err)
	}
	plan := EchoPlan{Sessions: [][2]int{{0, 1}, {0, 2}, {1, 2}}, Rounds: 3}
	if _, err := f.RunEcho(plan); err != nil {
		t.Fatal(err)
	}
	ends, err := echoEnds(plan, len(f.CVMs))
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range f.CVMs {
		for _, e := range ends[id] {
			checkChnView(t, c.Stub, e.init, e.sid)
		}
	}
}

// The session view belongs to the machine, not the VCPU: a data frame
// delivered through VCPU 1's stub is received through VCPU 0's.
func TestChnViewSharedAcrossVCPUs(t *testing.T) {
	opts := testFleetOptions(2, 19)
	opts.Base.VCPUs = 2
	f, err := BootFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunEcho(EchoPlan{Sessions: [][2]int{{0, 1}}, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	var frame []byte
	f.CVMs[0].Stub.SetNetSender(func(_ int, fr []byte) error {
		frame = append([]byte(nil), fr...)
		return nil
	})
	if err := f.CVMs[0].Stub.ChnSend(0, 0, []byte("via vcpu 1")); err != nil {
		t.Fatal(err)
	}
	resp := f.CVMs[1]
	if err := resp.Stubs[1].ChnDeliver(frame); err != nil {
		t.Fatal(err)
	}
	msg, ok, err := resp.Stubs[0].ChnRecv(0, 0)
	if err != nil || !ok || string(msg) != "via vcpu 1" {
		t.Fatalf("ChnRecv on VCPU 0 = %q, %v, %v; want the frame delivered on VCPU 1", msg, ok, err)
	}
	checkChnView(t, resp.Stubs[0], 0, 0)
}

// A Dial frame that names the receiving machine as its own initiator is
// refused: its (init, sid) key belongs to the machine's own dials, and
// accepting it would let the host plant a session that a later local dial
// overwrites — moving a session out of Established.
func TestChnRefusesReflectedDial(t *testing.T) {
	f, err := BootFleet(testFleetOptions(2, 37))
	if err != nil {
		t.Fatal(err)
	}
	var dial []byte
	f.CVMs[0].Stub.SetNetSender(func(_ int, fr []byte) error {
		dial = append([]byte(nil), fr...)
		return nil
	})
	if _, err := f.CVMs[0].Stub.ChnDial(1); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(dial[1:], 1) // init := the receiver
	victim := f.CVMs[1]
	if err := victim.Stub.ChnDeliver(dial); !errors.Is(err, core.ErrDenied) {
		t.Fatalf("reflected dial: err = %v, want ErrDenied", err)
	}
	if st := victim.CHN.Stats(); st.Refused != 1 {
		t.Fatalf("refused = %d, want 1", st.Refused)
	}
	checkChnView(t, victim.Stub, 1, 0)
}

// deniedChannelSince reports whether the flight tail holds a
// DeniedChannel event among the events claimed after it had seen
// `before` claims in total.
func deniedChannelSince(m *snp.Machine, before uint64) bool {
	evs := m.FlightTail()
	n := m.FlightDropped() + uint64(m.FlightTailLen()) - before
	if n > uint64(len(evs)) {
		n = uint64(len(evs))
	}
	for _, e := range evs[uint64(len(evs))-n:] {
		if e.Class == obs.ClassDenied && e.Arg1 == uint64(snp.DeniedChannel) {
			return true
		}
	}
	return false
}

// FuzzChnDeliver feeds arbitrary bytes and mutated real frames to either
// end of an established session. Whatever arrives, delivery must not
// panic, every refusal must leave DeniedChannel evidence, and the
// receiving machine's session view must still agree with its service —
// on the established session and on the session the frame's header
// names. One fleet serves every input, so frames that are accepted once
// (a fresh dial, the first copy of a data frame) are replays afterwards.
func FuzzChnDeliver(f *testing.F) {
	opts := testFleetOptions(2, 31)
	opts.Base.FlightCapacity = 1 << 12
	opts.Link = fabric.LinkModel{BaseLatency: 5_000}
	fl, err := BootFleet(opts)
	if err != nil {
		f.Fatal(err)
	}
	// The fuzzer, not the fabric, decides what each machine receives:
	// transmitted frames are captured, and dropped between inputs.
	var sent [][]byte
	for _, c := range fl.CVMs {
		c.Stub.SetNetSender(func(_ int, fr []byte) error {
			sent = append(sent, append([]byte(nil), fr...))
			return nil
		})
	}
	a, b := fl.CVMs[0].Stub, fl.CVMs[1].Stub
	last := func() []byte { return sent[len(sent)-1] }
	sid, err := a.ChnDial(1)
	if err != nil {
		f.Fatal(err)
	}
	dial := last()
	if err := b.ChnDeliver(dial); err != nil {
		f.Fatal(err)
	}
	offer := last()
	if err := a.ChnDeliver(offer); err != nil {
		f.Fatal(err)
	}
	answer := last()
	if err := b.ChnDeliver(answer); err != nil {
		f.Fatal(err)
	}
	if err := a.ChnSend(0, sid, []byte("request")); err != nil {
		f.Fatal(err)
	}
	toB := last()
	if err := b.ChnSend(0, sid, []byte("echo:request")); err != nil {
		f.Fatal(err)
	}
	toA := last()

	flip := func(fr []byte, at int) []byte {
		out := append([]byte(nil), fr...)
		out[at%len(out)] ^= 0x40
		return out
	}
	f.Add(uint8(1), dial)
	f.Add(uint8(0), offer)
	f.Add(uint8(1), answer)
	f.Add(uint8(1), toB)
	f.Add(uint8(0), toA)
	f.Add(uint8(1), flip(toB, 9))          // session id
	f.Add(uint8(1), flip(toB, 20))         // trace context
	f.Add(uint8(1), flip(toB, len(toB)-1)) // sealed body
	f.Add(uint8(1), flip(dial, 0))         // frame kind
	f.Add(uint8(0), offer[:len(offer)/2])  // truncated report
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), append(toB, make([]byte, core.IDCBPayloadMax)...)) // oversized

	f.Fuzz(func(t *testing.T, to uint8, frame []byte) {
		sent = sent[:0]
		c := fl.CVMs[int(to)%len(fl.CVMs)]
		before := c.M.FlightDropped() + uint64(c.M.FlightTailLen())
		err := c.Stub.ChnDeliver(frame)
		switch {
		case len(frame) > core.IDCBPayloadMax:
			// Too large for the IDCB: the stub fails before any domain
			// switch, so the service never sees the frame.
			if err == nil || errors.Is(err, core.ErrDenied) {
				t.Fatalf("oversized frame: err = %v, want the IDCB size error", err)
			}
		case errors.Is(err, core.ErrDenied):
			if !deniedChannelSince(c.M, before) {
				t.Fatal("refused frame left no DeniedChannel evidence")
			}
		case err != nil:
			t.Fatalf("ChnDeliver: %v", err)
		}
		checkChnView(t, c.Stub, 0, sid)
		if len(frame) >= chn.FrameHeaderLen {
			checkChnView(t, c.Stub, int(binary.LittleEndian.Uint32(frame[1:])), binary.LittleEndian.Uint32(frame[9:]))
		}
	})
}

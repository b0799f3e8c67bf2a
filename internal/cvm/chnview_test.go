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
// one session: ChnState equals a raw OpChnState, and ChnRecv fails exactly
// when the service does not hold the session. It drains the session's
// queue and returns how many messages it held, for the caller's count of
// messages the OS has taken: the service's Stats.Received must equal it.
func checkChnView(t testing.TB, st *core.OSStub, init int, sid uint32) uint64 {
	t.Helper()
	state, err := st.ChnState(init, sid)
	if err != nil {
		t.Fatalf("ChnState(%d, %d): %v", init, sid, err)
	}
	if raw := rawChn(t, st, core.OpChnState, init, sid); raw.Status != core.StatusOK || !bytes.Equal(raw.Payload, []byte{state}) {
		t.Fatalf("(init %d, sid %d): view state %d, service says status %d %v", init, sid, state, raw.Status, raw.Payload)
	}
	for n := uint64(0); ; n++ {
		_, ok, err := st.ChnRecv(init, sid)
		if (err != nil) != (state == core.ChnStateNone) {
			t.Fatalf("(init %d, sid %d): ChnRecv err %v on a session in state %d", init, sid, err, state)
		}
		if !ok {
			return n
		}
	}
}

// After an honest run every machine's view agrees with its service on
// every session it belongs to, and every message the service opened was
// taken by the echo task: the views hold nothing more.
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
		taken := uint64(len(ends[id]) * plan.Rounds)
		for _, e := range ends[id] {
			taken += checkChnView(t, c.Stub, e.init, e.sid)
		}
		if got := c.CHN.Stats().Received; got != taken {
			t.Fatalf("m%d: service opened %d messages, the OS took %d", id, got, taken)
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
	if n := checkChnView(t, resp.Stubs[0], 0, 0); n != 0 {
		t.Fatalf("the view still held %d messages after the receive", n)
	}
	if got := resp.CHN.Stats().Received; got != 2 {
		t.Fatalf("service opened %d messages, want the echo request and this one", got)
	}
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
	if n := checkChnView(t, victim.Stub, 1, 0); n != 0 {
		t.Fatalf("the reflected dial queued %d messages", n)
	}
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
// panic, every refusal must leave DeniedChannel evidence and open
// nothing, the receiving machine's session view must still agree with its
// service — on the established session and on the session the frame's
// header names — and the next in-order data frame must still open. One
// fleet serves every input, so its seed frames are all replays by the
// time the fuzzer delivers them; a frame accepted once (a fresh dial) is a
// replay afterwards.
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
	// send seals msg at from, delivers it to the other machine and takes
	// it there: the in-order frame every input is followed by.
	send := func(t testing.TB, from int, msg string) []byte {
		if err := fl.CVMs[from].Stub.ChnSend(0, sid, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		fr := last()
		to := fl.CVMs[1-from].Stub
		if err := to.ChnDeliver(fr); err != nil {
			t.Fatalf("in-order frame to m%d: %v", 1-from, err)
		}
		if got, ok, err := to.ChnRecv(0, sid); err != nil || !ok || string(got) != msg {
			t.Fatalf("m%d ChnRecv = %q, %v, %v; want %q", 1-from, got, ok, err, msg)
		}
		return fr
	}
	toB := send(f, 0, "request")
	toA := send(f, 1, "echo:request")
	// taken counts, per machine, the messages the OS has received.
	taken := [2]uint64{1, 1}

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
		id := int(to) % len(fl.CVMs)
		c := fl.CVMs[id]
		before := c.M.FlightDropped() + uint64(c.M.FlightTailLen())
		opened := c.CHN.Stats().Received
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
			if c.CHN.Stats().Received != opened {
				t.Fatal("a refused frame opened a message")
			}
		case err != nil:
			t.Fatalf("ChnDeliver: %v", err)
		}
		taken[id] += checkChnView(t, c.Stub, 0, sid)
		if len(frame) >= chn.FrameHeaderLen {
			taken[id] += checkChnView(t, c.Stub, int(binary.LittleEndian.Uint32(frame[1:])), binary.LittleEndian.Uint32(frame[9:]))
		}
		if got := c.CHN.Stats().Received; got != taken[id] {
			t.Fatalf("m%d: service opened %d messages, the OS received %d", id, got, taken[id])
		}
		send(t, 1-id, "in order")
		taken[id]++
	})
}

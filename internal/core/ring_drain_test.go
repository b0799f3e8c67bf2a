package core_test

// The ring's hostile-input differential fuzzer and its span-count pin. The
// span-per-page SubmitSrv, drainRing and Poll are held to the per-field
// reference in ring_ref_test.go on twin CVMs that see the same hostile
// ring bytes and the same RMP revocations.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/obs"
	"veil/internal/snp"
)

// ringDrainInput is one decoded FuzzRingDrain input.
type ringDrainInput struct {
	submits     int    // honest SubmitSrv calls before the hostile writes
	lateSubmit  bool   // one more SubmitSrv after the revocation
	tail, irq   []byte // raw header words, written when non-nil
	slots       map[int][]byte
	revoke      bool
	revokePage  int // 0 submission, 1 completion, 2.. payload slot page-2
	revokeVMPL  snp.VMPL
	revokePerm  snp.Perm
	pollExtra   uint32 // sequence numbers past the honest ones to poll
	payloadSeed byte
	// tripwire, when non-zero, sends honest submission tripwire%5-1 to
	// svcTripwire, whose handler changes the RMP under the drain.
	tripwire byte
}

// svcTripwire is a test service whose handler, mid-drain, takes VMPL1's
// write access to the completion page away (odd op), which only a
// completion span taken after the dispatch sees, or halts the CVM (even
// op).
const svcTripwire = 0xEE

func registerTripwire(c *cvm.CVM) {
	comp := c.Lay.RingComp(0)
	c.Mon.RegisterService(svcTripwire, func(_ int, op uint8, _ []byte) (uint32, []byte) {
		if op%2 == 1 {
			_ = c.M.RMPAdjust(snp.VMPL0, comp, snp.VMPL1, snp.PermRead)
		} else {
			_ = c.M.Halt(&snp.Fault{Kind: snp.FaultNPF, Phys: comp, Why: "tripwire"})
		}
		return core.StatusOK, nil
	})
}

func decodeRingDrain(raw []byte) ringDrainInput {
	var in ringDrainInput
	next := func() byte {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return b
	}
	take := func(n int) []byte {
		n = min(n, len(raw))
		b := raw[:n:n]
		raw = raw[n:]
		return b
	}
	f := next()
	in.submits = int(f % 5)
	in.lateSubmit = f&0x08 != 0
	if f&0x10 != 0 {
		in.tail = take(4)
	}
	if f&0x20 != 0 {
		in.irq = take(4)
	}
	in.revoke = f&0x40 != 0
	r := next()
	in.revokePage = int(r&0x3f) % core.RingPagesPerVCPU
	in.revokeVMPL = snp.VMPL1
	if r&0x80 != 0 {
		in.revokeVMPL = snp.VMPL3
	}
	in.revokePerm = snp.PermNone
	if r&0x40 != 0 {
		in.revokePerm = snp.PermRead
	}
	in.pollExtra = uint32(next() % 4)
	in.payloadSeed = next()
	in.tripwire = next()
	in.slots = map[int][]byte{}
	for len(raw) > 0 && len(in.slots) < 8 {
		slot := int(next()) % core.RingSlots
		in.slots[slot] = take(32)
	}
	return in
}

// ringTwin is one side of the differential: a CVM and the protocol it
// runs (span-per-page or per-field reference).
type ringTwin struct {
	c      *cvm.CVM
	submit func(core.Request) (core.PendingCall, error)
	poll   func(core.PendingCall) (core.Response, bool, error)
	log    []string // everything observable, in order
}

func (w *ringTwin) note(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf(format, args...))
}

// errText renders err, with a fault's Phys taken down to its page base when
// normPhys is set.
func errText(err error, normPhys bool) string {
	if err == nil {
		return "<nil>"
	}
	s := err.Error()
	if f, ok := snp.AsFault(err); ok {
		n := *f
		if normPhys {
			n.Phys = snp.PageBase(n.Phys)
		}
		s = strings.Replace(s, f.Error(), fmt.Sprintf("%+v", n), 1)
	}
	return s
}

func (w *ringTwin) run(in ringDrainInput, normPhys bool) {
	c := w.c
	lay := c.Lay
	sub := lay.RingSub(0)
	req := func(i int) core.Request {
		n := int(in.payloadSeed+byte(i)) % 24
		r := core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend,
			Payload: bytes.Repeat([]byte{in.payloadSeed ^ byte(i)}, n+1)}
		if in.tripwire != 0 && i == int(in.tripwire%5)-1 {
			r.Svc, r.Op = svcTripwire, in.tripwire>>7
		}
		return r
	}
	var pending []core.PendingCall
	submit := func(i int) {
		pc, err := w.submit(req(i))
		w.note("submit %d: %+v %s", i, pc, errText(err, normPhys))
		if err == nil {
			pending = append(pending, pc)
		}
	}
	for i := 0; i < in.submits; i++ {
		submit(i)
	}

	// The hostile OS rewrites the submission header and descriptor slots.
	if in.tail != nil {
		w.note("tail write: %s", errText(c.K.WritePhys(sub, in.tail), normPhys))
	}
	if in.irq != nil {
		w.note("irq write: %s", errText(c.K.WritePhys(sub+4, in.irq), normPhys))
	}
	for slot := 0; slot < core.RingSlots; slot++ {
		if b, ok := in.slots[slot]; ok {
			w.note("slot %d write: %s", slot, errText(c.K.WritePhys(sub+64+uint64(slot)*64, b), normPhys))
		}
	}
	if in.revoke {
		page := sub + uint64(in.revokePage)*snp.PageSize
		err := c.M.RMPAdjust(snp.VMPL0, page, in.revokeVMPL, in.revokePerm)
		w.note("revoke %#x %v %v: %s", page, in.revokeVMPL, in.revokePerm, errText(err, normPhys))
	}
	if in.lateSubmit {
		submit(in.submits)
	}

	w.note("doorbell: %s", errText(c.Stub.Doorbell(), normPhys))

	var first uint32
	if len(pending) > 0 {
		first = pending[0].Seq
	}
	for i := uint32(0); i < uint32(len(pending))+in.pollExtra; i++ {
		pc := core.PendingCall{Seq: first + i, Svc: core.SvcLOG, Op: core.OpLogAppend}
		r, done, err := w.poll(pc)
		w.note("poll %d: %d %x %v %s", pc.Seq, r.Status, r.Payload, done, errText(err, normPhys))
	}

	if h := c.M.Halted(); h != nil {
		w.note("halted: %s", errText(h, normPhys))
	} else {
		// A halted CVM's memory is unreachable; a running one's ring and
		// payload pages are read back at VMPL0.
		for p := 0; p < core.RingPagesPerVCPU; p++ {
			buf := make([]byte, snp.PageSize)
			err := c.M.GuestReadPhys(snp.VMPL0, snp.CPL0, sub+uint64(p)*snp.PageSize, buf)
			w.note("page %d: %x %s", p, buf, errText(err, normPhys))
		}
	}
	recs, err := c.LOG.Records()
	w.note("store: %q %s", recs, errText(err, normPhys))
	for _, e := range c.M.FlightTail() {
		if e.Class == obs.ClassDenied && e.Arg1 == uint64(snp.DeniedRing) {
			w.note("denied ring %#x", e.Arg2)
		}
	}
}

// FuzzRingDrain is the hostile-ring differential fuzzer: fuzzed bytes
// become honest submissions, then a hostile OS's writes to the submission
// header (tail, IRQ flag) and descriptor slots, then optionally a VMPL0
// RMPAdjust revoking VMPL1's or VMPL3's access to one ring page, then a
// doorbell and polls; a fuzzed submission may go to a test service whose
// handler changes the RMP or halts the CVM mid-drain. One CVM runs SubmitSrv, drainRing and Poll; its twin
// runs the per-field reference. Every byte of the ring and payload pages,
// every error's text and every *Fault field, the halt, the VeilS-Log store
// and the DeniedRing flight events must match. The one difference allowed:
// when a ring page itself is revoked, a fault's Phys may name the start of
// the page span instead of the slot, so there (and wherever the test
// service may revoke the completion page) both sides compare
// PageBase(Phys).
func FuzzRingDrain(f *testing.F) {
	f.Add([]byte{0x03, 0, 0, 0})
	f.Add([]byte{0x13, 0, 0, 0, 9, 0, 0, 0})
	f.Add([]byte{0x3a, 0, 1, 5, 40, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{0x42, 0x01, 0, 0})    // VMPL1 loses the completion page
	f.Add([]byte{0x4a, 0xc0, 0, 0})    // VMPL3 keeps only read on the submission page
	f.Add([]byte{0x42, 0x80, 1, 0})    // VMPL3 loses the submission page
	f.Add([]byte{0x42, 0x02, 0, 7})    // VMPL1 loses the first payload page
	f.Add([]byte{0x42, 0x40, 0, 0})    // VMPL1 keeps only read on the submission page
	f.Add([]byte{0x41, 0x81, 2, 3})    // VMPL3 loses the completion page
	f.Add([]byte{0x02, 0, 0, 5, 0x84}) // the last submission's handler revokes VMPL1's write
	f.Add([]byte{0x03, 0, 1, 9, 0x03}) // the last submission's handler halts the CVM
	f.Add(append([]byte{0x12, 0, 0, 1, 4, 0, 0, 0, 0}, bytes.Repeat([]byte{0xff}, 32)...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		in := decodeRingDrain(raw)
		normPhys := in.revoke && in.revokePage < 2 || in.tripwire != 0

		got := &ringTwin{c: bootVeil(t)}
		got.submit, got.poll = got.c.Stub.SubmitSrv, got.c.Stub.Poll
		want := &ringTwin{c: bootVeil(t)}
		want.submit, want.poll = want.c.Stub.SubmitSrvRef, want.c.Stub.PollRef
		for _, w := range []*ringTwin{got, want} {
			if err := w.c.Mon.RebindRingDrain(0, w == want); err != nil {
				t.Fatal(err)
			}
			registerTripwire(w.c)
		}

		got.run(in, normPhys)
		want.run(in, normPhys)
		if !reflect.DeepEqual(got.log, want.log) {
			for i := range max(len(got.log), len(want.log)) {
				var g, w string
				if i < len(got.log) {
					g = got.log[i]
				}
				if i < len(want.log) {
					w = want.log[i]
				}
				if g != w {
					t.Fatalf("input %+v: step %d differs:\n got:  %.400s\n want: %.400s", in, i, g, w)
				}
			}
		}
	})
}

// TestRingSpansPerOp pins the RMP-checked spans each ring operation takes
// on the OS and VeilMon sides. SubmitSrv reads the head and the tail,
// writes the payload, and writes the descriptor with the new tail: 4. A
// doorbell reads the head, then the tail and IRQ flag through one span;
// per descriptor it reads the descriptor and the request payload, the
// VeilS-Log append writes the record's length and bytes through one span
// per store page (one here), and the completion is published with the
// new head through one span: 2 + 4k.
// Poll reads the head and the completion slot through one span, plus one
// for a response payload (an append returns none): 1.
//
// The per-field protocol took, for the same cases: submit 5, doorbell
// k=1 9 and k=4 27 (3 + 6k), poll 2. With one span for the append's
// length and one for its bytes, a doorbell took 2 + 5k: 7 and 22.
func TestRingSpansPerOp(t *testing.T) {
	c := bootVeil(t)
	spans := func() uint64 {
		ms := c.M.MemStats()
		return ms.SpanReads + ms.SpanWrites
	}
	req := core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend, Payload: []byte("span-count")}
	measure := func(fn func() error) uint64 {
		t.Helper()
		before := spans()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return spans() - before
	}
	var pcs []core.PendingCall
	submit := func() error {
		pc, err := c.Stub.SubmitSrv(req)
		pcs = append(pcs, pc)
		return err
	}
	poll := func() error {
		pc := pcs[0]
		pcs = pcs[1:]
		if _, done, err := c.Stub.Poll(pc); err != nil || !done {
			return fmt.Errorf("poll %d: done=%v err=%v", pc.Seq, done, err)
		}
		return nil
	}

	for _, tc := range []struct {
		name string
		want uint64
		fn   func() error
	}{
		{"submit", 4, submit},
		{"doorbell k=1", 6, c.Stub.Doorbell},
		{"poll", 1, poll},
		{"submit×4", 16, func() error {
			for range 4 {
				if err := submit(); err != nil {
					return err
				}
			}
			return nil
		}},
		{"doorbell k=4", 18, c.Stub.Doorbell},
	} {
		if got := measure(tc.fn); got != tc.want {
			t.Errorf("%s takes %d spans, want %d", tc.name, got, tc.want)
		}
	}
}

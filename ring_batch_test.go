package veil

// Edge-case and differential tests for the batched service-invocation ring
// (internal/core/ring.go): wraparound past the 31-slot capacity,
// backpressure when the ring fills, empty doorbells, interleaved
// submit/poll orders on the OS stub, and a fuzzer that holds the
// batched path request-for-request identical to the synchronous one.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/snp"
)

func bootRing(t testing.TB, seed int64) *cvm.CVM {
	t.Helper()
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: 1, Veil: true, LogPages: 32,
		Rand: cvm.SeededRand(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRingWraparound pushes 100 requests through the 31-slot ring in
// batches of 10 — the free-running head/tail wrap the slot index several
// times — and checks every response and the final store against the
// synchronous path on a second, identically seeded CVM.
func TestRingWraparound(t *testing.T) {
	ringed, synced := bootRing(t, 4100), bootRing(t, 4100)
	rec := func(i int) []byte { return []byte(fmt.Sprintf("wrap-%03d", i)) }

	for i := 0; i < 100; i += 10 {
		reqs := make([]core.Request, 10)
		for j := range reqs {
			reqs[j] = core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend, Payload: rec(i + j)}
		}
		resps, err := ringed.Stub.CallSrvBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range resps {
			want, err := synced.Stub.CallSrv(reqs[j])
			if err != nil {
				t.Fatal(err)
			}
			if r.Status != want.Status || !bytes.Equal(r.Payload, want.Payload) {
				t.Fatalf("call %d: ring %+v != sync %+v", i+j, r, want)
			}
		}
	}
	a, err := ringed.LOG.Records()
	if err != nil {
		t.Fatal(err)
	}
	b, err := synced.LOG.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 100 || len(a) != len(b) {
		t.Fatalf("store sizes: ring %d, sync %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("record %d diverged", i)
		}
	}
}

// TestRingBackpressure fills the ring to capacity: the 32nd submission must
// fail with ErrRingFull, and a doorbell must clear the backlog so
// submission works again.
func TestRingBackpressure(t *testing.T) {
	c := bootRing(t, 4200)
	var pcs []core.PendingCall
	for i := 0; i < core.RingSlots; i++ {
		pc, err := c.Stub.SubmitSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pcs = append(pcs, pc)
	}
	if _, err := c.Stub.SubmitSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend}); !errors.Is(err, core.ErrRingFull) {
		t.Fatalf("submission %d: err = %v, want ErrRingFull", core.RingSlots+1, err)
	}
	if err := c.Stub.Doorbell(); err != nil {
		t.Fatal(err)
	}
	for i, pc := range pcs {
		r, done, err := c.Stub.Poll(pc)
		if err != nil || !done || r.Status != core.StatusOK {
			t.Fatalf("poll %d: done=%v status=%d err=%v", i, done, r.Status, err)
		}
	}
	if _, err := c.Stub.SubmitSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend, Payload: []byte("after")}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestRingEmptyDoorbell rings the doorbell with nothing pending: the drain
// must be a harmless no-op (and still cost only one round trip).
func TestRingEmptyDoorbell(t *testing.T) {
	c := bootRing(t, 4300)
	tr := c.M.Trace().Snapshot()
	if err := c.Stub.Doorbell(); err != nil {
		t.Fatal(err)
	}
	if d := c.M.Trace().Since(tr).DomainSwitches; d != 2 {
		t.Fatalf("empty doorbell made %d switches, want 2", d)
	}
	if _, done, err := c.Stub.Poll(core.PendingCall{Seq: 0}); done || err != nil {
		t.Fatalf("poll after empty drain: done=%v err=%v", done, err)
	}
}

// TestRingInterleaved submits two requests whose results are consumed out
// of order — the poll side must be order-independent.
func TestRingInterleaved(t *testing.T) {
	c := bootRing(t, 4400)

	p1, err := c.Stub.SubmitSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend, Payload: []byte("first")})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Stub.SubmitSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogStats})
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := c.Stub.Poll(p2); done || err != nil {
		t.Fatalf("p2 before doorbell: done=%v err=%v", done, err)
	}
	if err := c.Stub.Doorbell(); err != nil {
		t.Fatal(err)
	}
	// Consume in reverse submission order.
	for _, pc := range []core.PendingCall{p2, p1} {
		r, done, err := c.Stub.Poll(pc)
		if !done || err != nil || r.Status != core.StatusOK {
			t.Fatalf("seq %d: done=%v %+v err=%v", pc.Seq, done, r, err)
		}
	}
	recs, err := c.LOG.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("first")) {
		t.Fatalf("store = %q", recs)
	}
}

// TestRetiredBatchOpsRefused: the group-commit ops VeilS-Log (op 3) and
// VeilS-Enc (op 6) once served are gone, and so is VeilS-Kci's op 4, which
// re-ran W⊕X activation over OS-chosen ranges. Well-formed payloads for
// them get the unknown-op refusal on both the synchronous and the ring
// path; nothing reaches the protected log store and the RMP is unchanged.
func TestRetiredBatchOpsRefused(t *testing.T) {
	c := bootRing(t, 4600)
	// VeilS-Log op 3: count u32, then count × (len u32, bytes).
	var logBatch []byte
	logBatch = binary.LittleEndian.AppendUint32(logBatch, 2)
	for _, rec := range []string{"one", "two"} {
		logBatch = binary.LittleEndian.AppendUint32(logBatch, uint32(len(rec)))
		logBatch = append(logBatch, rec...)
	}
	// VeilS-Enc op 6: id u32, count u32, then count × (virt, len, prot u64).
	var encBatch []byte
	encBatch = binary.LittleEndian.AppendUint32(encBatch, 0)
	encBatch = binary.LittleEndian.AppendUint32(encBatch, 1)
	for _, v := range []uint64{0x400000, 0x1000, 3} {
		encBatch = binary.LittleEndian.AppendUint64(encBatch, v)
	}
	// VeilS-Kci op 4: text ranges then data ranges, each a count u32 and
	// [lo, hi) u64 pairs. One data range over the first kernel text page.
	var kciActivate []byte
	kciActivate = binary.LittleEndian.AppendUint32(kciActivate, 0)
	kciActivate = binary.LittleEndian.AppendUint32(kciActivate, 1)
	kciActivate = binary.LittleEndian.AppendUint64(kciActivate, c.TextLo)
	kciActivate = binary.LittleEndian.AppendUint64(kciActivate, c.TextLo+snp.PageSize)
	reqs := []core.Request{
		{Svc: core.SvcLOG, Op: 3, Payload: logBatch},
		{Svc: core.SvcENC, Op: 6, Payload: encBatch},
		{Svc: core.SvcKCI, Op: 4, Payload: kciActivate},
	}
	rmp := func() []snp.RMPEntry {
		out := make([]snp.RMPEntry, c.M.NumPages())
		for i := range out {
			out[i], _ = c.M.RMPEntryAt(uint64(i) * snp.PageSize)
		}
		return out
	}
	rmpBefore := rmp()
	before := c.LOG.Count()
	for _, req := range reqs {
		resp, err := c.Stub.CallSrv(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != core.StatusError {
			t.Fatalf("sync svc %d op %d: status %d, want StatusError", req.Svc, req.Op, resp.Status)
		}
	}
	resps, err := c.Stub.CallSrvBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if resp.Status != core.StatusError {
			t.Fatalf("ring svc %d op %d: status %d, want StatusError", reqs[i].Svc, reqs[i].Op, resp.Status)
		}
	}
	if got := c.LOG.Count(); got != before {
		t.Fatalf("LOG.Count = %d after refused ops, want %d", got, before)
	}
	for i, e := range rmp() {
		if e != rmpBefore[i] {
			t.Fatalf("page %d: RMP %+v after refused ops, want %+v", i, e, rmpBefore[i])
		}
	}
}

// FuzzRingProtocol is the differential fuzzer: arbitrary bytes become a
// request list issued through the synchronous path on one CVM and through
// CallSrvBatch on an identically seeded second CVM. Responses and the
// resulting protected stores must match exactly — the batched path may
// change only how many domain switches pay for the calls.
func FuzzRingProtocol(f *testing.F) {
	f.Add([]byte{1, 5, 'h', 'e', 'l', 'l', 'o', 2, 0})
	f.Add([]byte{3, 4, 0, 0, 0, 0, 1, 0})
	f.Add(bytes.Repeat([]byte{1, 2, 'x', 'y'}, 40))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Decode: [op-selector, payload-len, payload...]* — ops cycle over
		// VeilS-Log's handlers (append, stats) and the retired op 3, which
		// must be refused; payloads are raw attacker bytes.
		var reqs []core.Request
		for i := 0; i+1 < len(raw) && len(reqs) < 40; {
			op := []uint8{core.OpLogAppend, core.OpLogStats, 3}[raw[i]%3]
			n := int(raw[i+1]) % 100
			i += 2
			if n > len(raw)-i {
				n = len(raw) - i
			}
			reqs = append(reqs, core.Request{Svc: core.SvcLOG, Op: op, Payload: raw[i : i+n]})
			i += n
		}
		if len(reqs) == 0 {
			return
		}

		ringed, synced := bootRing(t, 4500), bootRing(t, 4500)
		got, err := ringed.Stub.CallSrvBatch(reqs)
		if err != nil {
			t.Fatalf("batched: %v", err)
		}
		for i, req := range reqs {
			want, err := synced.Stub.CallSrv(req)
			if err != nil {
				t.Fatalf("sync call %d: %v", i, err)
			}
			if got[i].Status != want.Status || !bytes.Equal(got[i].Payload, want.Payload) {
				t.Fatalf("call %d (op %d): ring %+v != sync %+v", i, req.Op, got[i], want)
			}
		}
		a, err := ringed.LOG.Records()
		if err != nil {
			t.Fatal(err)
		}
		b, err := synced.LOG.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("stores: ring %d records, sync %d", len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("record %d diverged", i)
			}
		}
	})
}

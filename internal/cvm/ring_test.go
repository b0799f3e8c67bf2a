package cvm

import (
	"testing"

	"veil/internal/core"
)

// A ring-batched VeilS-Log append allocates nothing in steady state: four
// SubmitSrv calls copy their payloads into the ring's slot pages, one
// Doorbell drains them through Dom-SRV, and each Poll reads its completion
// back in place.
func TestRingAppendZeroAlloc(t *testing.T) {
	c, err := Boot(Options{
		MemBytes: 24 << 20, VCPUs: 1, Veil: true, LogPages: 256,
		Rand: SeededRand(29),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stub
	payload := []byte("ring append zero-alloc gate")
	var pcs [4]core.PendingCall
	batch := func() {
		for i := range pcs {
			pc, err := st.SubmitSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend, Payload: payload})
			if err != nil {
				t.Fatalf("SubmitSrv: %v", err)
			}
			pcs[i] = pc
		}
		if err := st.Doorbell(); err != nil {
			t.Fatalf("Doorbell: %v", err)
		}
		for _, pc := range pcs {
			r, ok, err := st.Poll(pc)
			if err != nil || !ok || r.Status != core.StatusOK {
				t.Fatalf("Poll seq %d: ok=%v status=%d err=%v", pc.Seq, ok, r.Status, err)
			}
		}
	}
	batch() // warm the ring and the log's buffers
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Errorf("a batch of %d ring appends allocates %.1f times, want 0", len(pcs), allocs)
	}
	if want := uint64(102 * len(pcs)); c.LOG.Count() != want || c.LOG.Dropped() != 0 {
		t.Fatalf("log holds %d records (%d dropped), want %d", c.LOG.Count(), c.LOG.Dropped(), want)
	}
}

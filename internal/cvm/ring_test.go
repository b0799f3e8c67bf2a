package cvm

import (
	"errors"
	"testing"

	"veil/internal/core"
	"veil/internal/sched"
)

// A ring-batched VeilS-Log append allocates nothing in steady state: four
// SubmitSrv calls copy their payloads into the ring's slot pages, one
// doorbell drains them through Dom-SRV, and each Poll reads its completion
// back in place. That holds for both doorbells: the synchronous Doorbell,
// and DoorbellAsync, whose drain the scheduler runs in a later Step while
// the submitter waits in WaitIntr for the completion interrupt.
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
	submit := func() {
		for i := range pcs {
			pc, err := st.SubmitSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend, Payload: payload})
			if err != nil {
				t.Fatalf("SubmitSrv: %v", err)
			}
			pcs[i] = pc
		}
	}
	collect := func() {
		for _, pc := range pcs {
			r, ok, err := st.Poll(pc)
			if err != nil || !ok || r.Status != core.StatusOK {
				t.Fatalf("Poll seq %d: ok=%v status=%d err=%v", pc.Seq, ok, r.Status, err)
			}
		}
	}
	batch := func() {
		submit()
		if err := st.Doorbell(); err != nil {
			t.Fatalf("Doorbell: %v", err)
		}
		collect()
	}
	batch() // warm the ring and the log's buffers
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Errorf("a batch of %d ring appends allocates %.1f times, want 0", len(pcs), allocs)
	}

	s := sched.New(sched.Config{Machine: c.M, VCPUs: 1})
	c.OnInterrupt(s.Wake)
	st.SetDispatcher(s)
	if err := st.EnableRingIRQ(true); err != nil {
		t.Fatal(err)
	}
	async := func() {
		submit()
		if err := st.DoorbellAsync(); err != nil {
			t.Fatalf("DoorbellAsync: %v", err)
		}
		last := pcs[len(pcs)-1]
		for rounds := 0; ; rounds++ {
			_, err := st.WaitIntr(last)
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrWouldBlock) || rounds == 4 {
				t.Fatalf("WaitIntr after %d rounds: %v", rounds, err)
			}
			if _, err := s.Step(); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
		collect()
	}
	async() // warm the drain queue
	if allocs := testing.AllocsPerRun(100, async); allocs != 0 {
		t.Errorf("a DoorbellAsync batch of %d ring appends allocates %.1f times, want 0", len(pcs), allocs)
	}
	if drains := s.Stats().Drains; drains != 102 {
		t.Fatalf("scheduler ran %d drains, want 102", drains)
	}
	if want := uint64(2 * 102 * len(pcs)); c.LOG.Count() != want || c.LOG.Dropped() != 0 {
		t.Fatalf("log holds %d records (%d dropped), want %d", c.LOG.Count(), c.LOG.Dropped(), want)
	}
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/obs"
	"veil/internal/sched"
)

// smp-ring: four VCPUs under the scheduler append to VeilS-Log over the
// batched service ring and block for the completion interrupt. VCPU 0 is a
// CPU-bound tenant (long compute slices, big batches); VCPUs 1-3 are
// interactive tenants with small batches that queue behind it. A request is
// one append, from submit until its completion is observed.

const (
	ringVCPUs       = 4
	ringAppends     = 24_000 // per round, split evenly over the VCPUs
	ringHogBurn     = 2_000_000
	ringHogBatch    = 16
	ringTenantBatch = 4
	ringRecordBytes = 64
	ringStorePages  = 8192
	ringMem         = 128 << 20
)

// ringTask is one VCPU's tenant: submit a batch, ring the doorbell through
// the scheduler, block until the completion interrupt, collect, repeat.
type ringTask struct {
	r       *round
	c       *cvm.CVM
	st      *core.OSStub
	burn    uint64
	batch   int
	batches int
	rec     []byte
	rng     *rand.Rand

	pending []core.PendingCall
	sentCyc []uint64
	sentAt  []time.Time
	done    int
	failed  int // appends answered with a status other than OK
}

func (t *ringTask) Step(vcpu int) (sched.Status, error) {
	clk := t.c.M.Clock()
	if len(t.pending) == 0 {
		if t.done >= t.batches {
			return sched.Done, nil
		}
		t.c.K.Burn(t.burn)
		for j := 0; j < t.batch; j++ {
			t.rng.Read(t.rec)
			h := t.r.hostNow()
			pc, err := t.st.SubmitSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend, Payload: t.rec})
			t.r.since("core.submit", h)
			if err != nil {
				return sched.Yield, err
			}
			t.pending = append(t.pending, pc)
			t.sentCyc = append(t.sentCyc, clk.Cycles())
			t.sentAt = append(t.sentAt, h)
		}
		return sched.Yield, t.st.DoorbellAsync()
	}

	last := t.pending[len(t.pending)-1]
	h := t.r.hostNow()
	_, err := t.st.WaitIntr(last)
	t.r.since("core.wait_intr", h)
	if errors.Is(err, core.ErrWouldBlock) {
		return sched.Blocked, nil
	}
	if err != nil {
		return sched.Yield, err
	}
	for i, pc := range t.pending {
		h := t.r.hostNow()
		resp, ok, err := t.st.Poll(pc)
		t.r.since("core.poll", h)
		if err != nil {
			return sched.Yield, err
		}
		if !ok {
			return sched.Yield, fmt.Errorf("append seq %d incomplete after its drain", pc.Seq)
		}
		t.r.request(clk.Cycles() - t.sentCyc[i])
		t.r.since("req", t.sentAt[i])
		if resp.Status != core.StatusOK {
			t.r.fail()
			t.failed++
		}
	}
	t.pending, t.sentCyc, t.sentAt = t.pending[:0], t.sentCyc[:0], t.sentAt[:0]
	t.done++
	return sched.Yield, nil
}

// timedDrains times each deferred ring drain (the doorbell's domain switch,
// the monitor's drain and the completion interrupt) in traced rounds.
type timedDrains struct {
	s *sched.Scheduler
	r *round
}

func (d timedDrains) PostDrain(vcpu int, expectWake bool, fire func() error) {
	d.s.PostDrain(vcpu, expectWake, func() error {
		h := time.Now()
		err := fire()
		d.r.since("core.doorbell", h)
		return err
	})
}

// ringRound runs one smp-ring round over a store of storePages pages.
func ringRound(r *round, storePages uint64) error {
	t0 := time.Now()
	c, err := cvm.Boot(cvm.Options{
		MemBytes: ringMem, VCPUs: ringVCPUs, Veil: true, LogPages: storePages,
		Rand: keyReader{r.rng(1)}, Recorder: r.recorder(),
	})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	r.bootDone(t0)
	defer c.M.Release()
	s := sched.New(sched.Config{Machine: c.M, VCPUs: ringVCPUs, Seed: r.seed, DrainLatency: 1})
	c.OnInterrupt(s.Wake)
	var disp core.Dispatcher = s
	if r.traced {
		disp = timedDrains{s: s, r: r}
	}
	perVCPU := r.scaled(ringAppends) / ringVCPUs
	rng := r.rng(4)
	tasks := make([]*ringTask, ringVCPUs)
	for i := range tasks {
		p := c.K.Spawn(fmt.Sprintf("ring-tenant-%d", i))
		v, err := c.K.PlaceProcess(p.PID)
		if err != nil {
			return err
		}
		st := c.StubFor(v)
		st.SetDispatcher(disp)
		if err := st.EnableRingIRQ(true); err != nil {
			return err
		}
		t := &ringTask{r: r, c: c, st: st, batch: ringTenantBatch, rec: make([]byte, ringRecordBytes), rng: rng}
		if v == 0 {
			t.burn, t.batch = ringHogBurn, ringHogBatch
		}
		t.batches = (perVCPU + t.batch - 1) / t.batch
		r.attempted += uint64(t.batches * t.batch)
		tasks[v] = t
		if err := s.Add(v, 1, t); err != nil {
			return err
		}
	}
	count0 := c.LOG.Count()
	if err := r.beginWindow(c.M); err != nil {
		return err
	}
	stats, runErr := s.Run()
	r.endWindow()
	if runErr != nil {
		// A stall or lost wake-up strands the remaining appends; they count
		// as failed against attempted.
		r.failf("scheduler: %v", runErr)
	}
	for v, t := range tasks {
		if t.failed > 0 {
			r.problemf("VCPU %d: %d appends answered with an error status", v, t.failed)
		}
	}
	appended := c.LOG.Count() - count0
	if appended != r.requests {
		r.failf("VeilS-Log appended %d records, %d were completed", appended, r.requests)
	}
	if d := c.LOG.Dropped(); d != 0 {
		r.failf("VeilS-Log dropped %d records", d)
	}
	r.machineLayers()
	ringLayers(r, c, s, stats, appended)
	return nil
}

func ringLayers(r *round, c *cvm.CVM, s *sched.Scheduler, st sched.Stats, appended uint64) {
	L := r.layer
	if st.Drains > 0 {
		L["core.ops_per_drain"] = float64(r.requests) / float64(st.Drains)
	}
	if rec := c.M.Recorder(); rec != nil {
		met := rec.Metrics()
		var all obs.Histogram
		for v := 0; v < met.VCPUs(); v++ {
			all.Merge(met.RingLatHist(v))
		}
		L["core.ring_lat_vcyc_p50"] = float64(all.Quantile(0.5))
		L["core.ring_lat_vcyc_p99"] = float64(all.Quantile(0.99))
	}
	L["vlog.records_per_op"] = r.perOp(appended)
	L["vlog.dropped"] = float64(c.LOG.Dropped())
	if fill, err := storeFill(c); err == nil {
		L["vlog.store_fill_ratio"] = fill
	}
	schedLayers(r, []sched.Stats{st}, []sched.Telemetry{s.Telemetry()})
}

// schedLayers reports scheduler work and telemetry summed over one
// scheduler per machine.
func schedLayers(r *round, stats []sched.Stats, tel []sched.Telemetry) {
	L := r.layer
	var slices, drains, wakeups, charged uint64
	var perVCPU []uint64
	var wake, wait, runq = tel[0].WakeLatency, tel[0].DrainWait, tel[0].RunQueue
	for i, st := range stats {
		slices += st.Slices
		drains += st.Drains
		wakeups += st.Wakeups
		for _, v := range st.PerVCPU {
			perVCPU = append(perVCPU, v.SliceCycles+v.DrainCycles)
			charged += v.SliceCycles + v.DrainCycles
		}
		if i > 0 {
			wake.Merge(&tel[i].WakeLatency)
			wait.Merge(&tel[i].DrainWait)
			runq.Merge(&tel[i].RunQueue)
		}
	}
	L["sched.slices_per_op"] = r.perOp(slices)
	L["sched.drains_per_op"] = r.perOp(drains)
	L["sched.wakeups_per_op"] = r.perOp(wakeups)
	L["sched.wake_lat_vcyc_p50"] = float64(wake.Quantile(0.5))
	L["sched.wake_lat_vcyc_p99"] = float64(wake.Quantile(0.99))
	L["sched.drain_wait_rounds_p99"] = float64(wait.Quantile(0.99))
	L["sched.runqueue_mean"] = runq.Mean()
	if r.vcyc > 0 {
		L["sched.occupancy_pct"] = 100 * float64(charged) / float64(r.vcyc)
	}
	L["sched.fairness_jain"] = sched.JainIndex(perVCPU)
}

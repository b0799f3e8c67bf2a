// The SMP scheduling experiment: the cvm ring tenant's batched VeilS-Log
// append workload driven on several VCPUs at once through the deterministic
// scheduler, comparing the two completion channels — spinning on PollSpin
// (each wait slice burns busy-poll cycles) versus blocking in WaitIntr and
// being woken by the relayed completion interrupt (a blocked VCPU burns
// nothing; the wake-up costs one interrupt injection plus the OS handler).
//
// Two drain-latency regimes bound the trade: "busy" (drains are served the
// next round, spinning barely waits) and "idle" (drains linger, spinning
// burns slices). The per-VCPU cycle ledger the scheduler keeps also yields
// the cross-VCPU fairness metrics. Everything is virtual cycles from fixed
// seeds: two runs of this experiment are byte-identical, which CI enforces.
package bench

import (
	"fmt"

	"veil/internal/cvm"
	"veil/internal/obs"
	"veil/internal/sched"
)

const (
	smpVCPUs     = 4
	smpBatches   = 6  // batches per VCPU
	smpBatchSize = 16 // submissions per batch (≤ RingSlots)
	// Drain pickup latency (scheduler rounds) for the two regimes.
	smpBusyLatency = 1
	smpIdleLatency = 10
)

// SMPVCPURow is one VCPU's slice of the scheduler's ledger.
type SMPVCPURow struct {
	VCPU        int
	Ops         uint64 // completed service calls
	Slices      uint64
	SliceCycles uint64
	Drains      uint64
	DrainCycles uint64
	Wakeups     uint64
	WaitSlices  uint64 // poll mode: slices burned spinning on a pending batch
	// RingLat digests this VCPU's submit→complete ring latencies
	// (virtual cycles from SubmitSrv to the first successful Poll).
	RingLat LatSummary
}

// SMPModeResult is one (mode, latency, VCPU count) configuration.
type SMPModeResult struct {
	Mode          string // "poll" | "intr"
	VCPUs         int
	Ops           uint64
	TotalCycles   uint64
	CyclesPerCall uint64
	Rounds        uint64
	Drains        uint64
	Wakeups       uint64
	// FairnessJain is Jain's index over per-VCPU charged cycles (slices +
	// drains): 1.0 = perfectly fair. FairnessMinMax is min/max of the same.
	FairnessJain   float64
	FairnessMinMax float64
	// Scheduler telemetry for the run: wake latency (virtual cycles from
	// block to wake — interrupt mode only populates it), drain queueing
	// delay (scheduler rounds from post to execution), mean runnable-VCPU
	// count per round, and the share of all virtual cycles charged inside
	// scheduler slices.
	WakeLat           LatSummary
	DrainWaitRounds   LatSummary
	RunQueueMean      float64
	SliceOccupancyPct float64
	PerVCPU           []SMPVCPURow
}

// SMPCompare pairs the two completion channels under one latency regime.
type SMPCompare struct {
	Poll SMPModeResult
	Intr SMPModeResult
	// IntrSavingsPct is how much cheaper the interrupt channel's per-call
	// cost is than polling's (negative when polling wins).
	IntrSavingsPct float64
}

// SMPResult is the whole experiment.
type SMPResult struct {
	VCPUs       int
	Batches     int
	BatchSize   int
	PollSpins   int
	BusyLatency int
	IdleLatency int
	// Busy: drains served next round — spinning barely waits. Idle:
	// drains linger — the regime interrupt completions exist for.
	Busy SMPCompare
	Idle SMPCompare
	// SingleVCPU is the N=1 special case under the idle regime: the same
	// scheduler, one VCPU, both channels still correct.
	SingleVCPU SMPCompare
}

// smpRun boots a fresh Veil CVM with the given VCPU count and drives the
// workload through the scheduler in the given mode and latency regime.
func smpRun(vcpus int, intr bool, latency int, seed int64) (SMPModeResult, error) {
	rec := obs.NewRecorder(benchRingCap)
	c, err := cvm.Boot(cvm.Options{
		MemBytes: benchMem,
		VCPUs:    vcpus,
		Veil:     true,
		LogPages: 2048,
		Rand:     cvm.SeededRand(seed),
		Recorder: rec,
	})
	if err != nil {
		return SMPModeResult{}, err
	}
	s := sched.New(sched.Config{Machine: c.M, VCPUs: vcpus, Seed: seed, DrainLatency: latency})
	s.RegisterGauges(rec)
	tasks, err := c.AddRingTenants(s, cvm.RingPlan{
		Name: "smp", Procs: vcpus, Batches: smpBatches, BatchSize: smpBatchSize, Intr: intr,
	})
	if err != nil {
		return SMPModeResult{}, err
	}

	start := c.M.Clock().Cycles()
	stats, err := s.Run()
	if err != nil {
		return SMPModeResult{}, err
	}
	total := c.M.Clock().Cycles() - start

	mode := "poll"
	if intr {
		mode = "intr"
	}
	r := SMPModeResult{
		Mode: mode, VCPUs: vcpus, TotalCycles: total,
		Rounds: stats.Rounds, Drains: stats.Drains, Wakeups: stats.Wakeups,
		PerVCPU: make([]SMPVCPURow, vcpus),
	}
	met := rec.Metrics()
	tel := s.Telemetry()
	r.WakeLat = latSummary(&tel.WakeLatency)
	r.DrainWaitRounds = latSummary(&tel.DrainWait)
	r.RunQueueMean = tel.RunQueue.Mean()
	r.SliceOccupancyPct = s.SliceOccupancyPct()
	charged := make([]uint64, vcpus)
	for i, vs := range stats.PerVCPU {
		r.PerVCPU[i] = SMPVCPURow{
			VCPU: i, Ops: tasks[i].Ops(),
			Slices: vs.Slices, SliceCycles: vs.SliceCycles,
			Drains: vs.Drains, DrainCycles: vs.DrainCycles,
			Wakeups: vs.Wakeups, WaitSlices: tasks[i].WaitSlices(),
			RingLat: latSummary(met.RingLatHist(i)),
		}
		r.Ops += tasks[i].Ops()
		charged[i] = vs.SliceCycles + vs.DrainCycles
	}
	if r.Ops != uint64(vcpus*smpBatches*smpBatchSize) {
		return SMPModeResult{}, fmt.Errorf("bench: smp %s completed %d of %d ops", mode, r.Ops, vcpus*smpBatches*smpBatchSize)
	}
	r.CyclesPerCall = total / r.Ops
	r.FairnessJain = sched.JainIndex(charged)
	r.FairnessMinMax = minMaxRatio(charged)
	return r, nil
}

func minMaxRatio(xs []uint64) float64 {
	if len(xs) == 0 {
		return 1
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == 0 {
		return 1
	}
	return float64(lo) / float64(hi)
}

func smpCompare(vcpus, latency int, seed int64) (SMPCompare, error) {
	poll, err := smpRun(vcpus, false, latency, seed)
	if err != nil {
		return SMPCompare{}, err
	}
	intr, err := smpRun(vcpus, true, latency, seed+1)
	if err != nil {
		return SMPCompare{}, err
	}
	cmp := SMPCompare{Poll: poll, Intr: intr}
	if poll.CyclesPerCall > 0 {
		cmp.IntrSavingsPct = 100 * (float64(poll.CyclesPerCall) - float64(intr.CyclesPerCall)) / float64(poll.CyclesPerCall)
	}
	return cmp, nil
}

// SMP runs the whole experiment from fixed seeds.
func SMP() (SMPResult, error) {
	r := SMPResult{
		VCPUs: smpVCPUs, Batches: smpBatches, BatchSize: smpBatchSize,
		PollSpins: cvm.RingPollSpins, BusyLatency: smpBusyLatency, IdleLatency: smpIdleLatency,
	}
	var err error
	if r.Busy, err = smpCompare(smpVCPUs, smpBusyLatency, 8800); err != nil {
		return r, err
	}
	if r.Idle, err = smpCompare(smpVCPUs, smpIdleLatency, 8810); err != nil {
		return r, err
	}
	if r.SingleVCPU, err = smpCompare(1, smpIdleLatency, 8820); err != nil {
		return r, err
	}
	// The claim the experiment exists to check: on idle-heavy workloads
	// the interrupt channel beats spinning.
	if r.Idle.Intr.CyclesPerCall >= r.Idle.Poll.CyclesPerCall {
		return r, fmt.Errorf("bench: interrupt completions (%d cyc/call) did not beat polling (%d cyc/call) on the idle workload",
			r.Idle.Intr.CyclesPerCall, r.Idle.Poll.CyclesPerCall)
	}
	return r, nil
}

// Package sched is the simulator's deterministic SMP scheduler: it owns a
// set of runnable VCPU tasks and drives them in bounded time slices with a
// seeded, reproducible interleaving. Every run with the same seed and the
// same tasks produces the same slice order, the same cycle attribution and
// the same event stream — no wall-clock, no goroutines, no map iteration.
//
// The scheduler is also the asynchronous half of the batched service-ring
// protocol (core/ring.go): DoorbellAsync posts drains into the deferred
// queue here, each drain runs charged to the owning VCPU's clock, and when
// the submitter enabled ring IRQs the completion interrupt (raised inside
// the drain, relayed per the hypervisor's interrupt mode) must wake the
// VCPU blocked in WaitIntr. A hostile host can refuse, misroute or swallow
// that interrupt; the scheduler's contract is that every such variant ends
// in a halt or an explicit refusal with audit evidence — never a deadlock.
//
// With one VCPU and no deferred drains the scheduler degenerates to "step
// the task until done": the existing single-VCPU paths are the N=1 special
// case, not a parallel code path.
package sched

import (
	"errors"
	"fmt"

	"veil/internal/snp"
)

// Status is a task's report after one slice.
type Status int

const (
	// Yield: the slice is used up, the task remains runnable.
	Yield Status = iota
	// Blocked: the task is waiting for a completion interrupt (WaitIntr
	// returned ErrWouldBlock). It is not stepped again until Wake.
	Blocked
	// Done: the task finished; its VCPU leaves the runnable set.
	Done
)

// Task is the guest work bound to one VCPU: a cooperative state machine
// stepped in bounded slices. Step runs on the owning VCPU and charges
// whatever virtual cycles the work costs; the scheduler attributes them.
type Task interface {
	Step(vcpu int) (Status, error)
}

// Slice kinds recorded by ObserveSchedSlice (Arg2).
const (
	// SliceTask is one Task.Step slice.
	SliceTask = 0
	// SliceDrain is one deferred ring drain.
	SliceDrain = 1
)

// ErrStalled is returned when blocked VCPUs remain but nothing can ever
// wake them: no runnable task, no pending drain. A lost wake-up (dropped or
// misrouted completion interrupt) ends here if it is not caught at drain
// time; the refusal carries DeniedIntrRoute evidence per stranded VCPU.
var ErrStalled = errors.New("sched: blocked VCPUs with no pending wake source")

// ErrLostWakeup is returned when a drain that owed its VCPU a completion
// interrupt finished without waking it — the host misrouted or swallowed
// the interrupt. DeniedIntrRoute evidence is recorded before returning.
var ErrLostWakeup = errors.New("sched: completion interrupt failed to wake its VCPU")

// Config assembles a Scheduler.
type Config struct {
	// Machine supplies the virtual clock, the obs attribution and the halt
	// state. Required.
	Machine *snp.Machine
	// VCPUs sizes the VCPU table (ids 0..VCPUs-1). Required, >= 1.
	VCPUs int
	// Seed drives the weighted-lottery pick among runnable VCPUs. Equal
	// seeds and equal task sets replay identical interleavings. Ignored
	// when Chooser is set.
	Seed int64
	// Chooser overrides the pick policy among runnable VCPUs. Nil installs
	// the seeded weighted lottery (the production default); the model
	// checker injects an enumerating chooser here to explore every
	// schedule decision instead of sampling one.
	Chooser Chooser
	// DrainLatency is how many scheduling rounds a posted drain waits
	// before it becomes eligible — the model's stand-in for dispatcher
	// pickup delay. Defaults to 1 (next round).
	DrainLatency int
	// MaxRounds bounds Run as a last-resort liveness backstop (default
	// 1<<20 rounds); overrunning it is reported as ErrStalled.
	MaxRounds uint64
}

type vcpuState struct {
	id     int
	task   Task
	weight int
	state  runState
	// wake latches a Wake that arrived while the task was runnable, so a
	// wake-up delivered between "completion published" and "task blocks"
	// is never lost: the next Blocked return is cancelled instead.
	wake bool
	// blockedAt is the virtual cycle the VCPU entered stateBlocked, for
	// the wake-latency histogram.
	blockedAt uint64
	stats     VCPUStats
}

type runState int

const (
	stateIdle runState = iota // no task bound
	stateRunnable
	stateBlocked
	stateDone
)

// VCPUStats is the per-VCPU ledger Run maintains: every virtual cycle
// charged during one of the VCPU's slices lands here, which is what makes
// cross-VCPU fairness measurable.
type VCPUStats struct {
	VCPU        int
	Slices      uint64 // task slices stepped
	SliceCycles uint64 // cycles charged during task slices
	Drains      uint64 // deferred drains run on behalf of this VCPU
	DrainCycles uint64 // cycles charged during those drains
	Wakeups     uint64 // Blocked→Runnable transitions
}

// Stats is Run's aggregate result.
type Stats struct {
	Rounds  uint64
	Slices  uint64
	Drains  uint64
	Wakeups uint64
	PerVCPU []VCPUStats
}

type drainReq struct {
	vcpu       int
	expectWake bool
	due        uint64 // round when the drain becomes eligible
	posted     uint64 // round PostDrain enqueued it (drain-wait telemetry)
	fire       func() error
}

// Scheduler drives N VCPUs deterministically. Not safe for concurrent use:
// like the machine it schedules, it is single-threaded by design.
type Scheduler struct {
	m   *snp.Machine
	cfg Config
	// vcpus is indexed by VCPU id — a slice, never a map, so iteration
	// order is the id order on every run.
	vcpus   []*vcpuState
	chooser Chooser
	cands   []Candidate // pick's reusable candidate scratch
	drains  []drainReq  // FIFO by post order
	round   uint64
	tel     Telemetry
}

// New creates a scheduler. Panics on a nil machine or VCPUs < 1 — both are
// assembly errors, not runtime conditions.
func New(cfg Config) *Scheduler {
	if cfg.Machine == nil {
		panic("sched: Config.Machine is required")
	}
	if cfg.VCPUs < 1 {
		panic("sched: Config.VCPUs must be >= 1")
	}
	if cfg.DrainLatency < 1 {
		cfg.DrainLatency = 1
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 1 << 20
	}
	chooser := cfg.Chooser
	if chooser == nil {
		chooser = NewLotteryChooser(cfg.Seed)
	}
	s := &Scheduler{
		m:       cfg.Machine,
		cfg:     cfg,
		vcpus:   make([]*vcpuState, cfg.VCPUs),
		chooser: chooser,
		cands:   make([]Candidate, 0, cfg.VCPUs),
	}
	for i := range s.vcpus {
		s.vcpus[i] = &vcpuState{id: i, stats: VCPUStats{VCPU: i}}
	}
	return s
}

// Add binds a task to a VCPU with the given lottery weight (minimum 1). A
// VCPU holds at most one task per run.
func (s *Scheduler) Add(vcpu int, weight int, t Task) error {
	if vcpu < 0 || vcpu >= len(s.vcpus) {
		return fmt.Errorf("sched: VCPU %d out of range [0,%d)", vcpu, len(s.vcpus))
	}
	v := s.vcpus[vcpu]
	if v.task != nil {
		return fmt.Errorf("sched: VCPU %d already has a task", vcpu)
	}
	if weight < 1 {
		weight = 1
	}
	v.task, v.weight, v.state = t, weight, stateRunnable
	return nil
}

// PostDrain implements core.Dispatcher: enqueue a deferred ring drain on
// behalf of vcpu, eligible DrainLatency rounds from now. expectWake marks
// drains whose submitter enabled ring IRQs and will block on the
// completion interrupt.
func (s *Scheduler) PostDrain(vcpu int, expectWake bool, fire func() error) {
	s.drains = append(s.drains, drainReq{
		vcpu: vcpu, expectWake: expectWake,
		due: s.round + uint64(s.cfg.DrainLatency), posted: s.round, fire: fire,
	})
}

// Wake delivers a completion wake-up to a VCPU. The Dom-UNT interrupt
// handler calls it (via the CVM's OnInterrupt wiring) after servicing a
// relayed completion interrupt. Waking a runnable VCPU latches the wake so
// an imminent Blocked return is cancelled rather than lost.
func (s *Scheduler) Wake(vcpu int) {
	if vcpu < 0 || vcpu >= len(s.vcpus) {
		return
	}
	v := s.vcpus[vcpu]
	if v.state == stateBlocked {
		v.state = stateRunnable
		v.stats.Wakeups++
		s.tel.WakeLatency.Observe(s.m.Clock().Cycles() - v.blockedAt)
		return
	}
	v.wake = true
}

// StepResult reports what one scheduler round accomplished — the contract
// between a single-machine Run loop and the fleet stepper that interleaves
// several schedulers in virtual-time lockstep.
type StepResult int

const (
	// StepProgress: work remains and the scheduler can keep going on its
	// own (it ran a slice or a drain, or is idling toward a pending
	// drain's due round).
	StepProgress StepResult = iota
	// StepDone: every task is Done.
	StepDone
	// StepAllBlocked: only blocked VCPUs remain and no drain is pending —
	// nothing inside this clock domain can ever make progress again. A
	// single-machine Run treats this as a stall; a fleet stepper treats it
	// as "waiting for a fabric message" and parks the machine until a
	// cross-machine delivery wakes it.
	StepAllBlocked
)

// Step executes one scheduling round: serve every due drain (FIFO), then
// step one runnable task picked by seeded weighted lottery. It reports
// whether the domain can continue, is finished, or is blocked on an
// external wake source. Halt, lost wake-ups and the round budget surface
// as errors exactly as they do from Run.
func (s *Scheduler) Step() (StepResult, error) {
	if f := s.m.Halted(); f != nil {
		return StepProgress, fmt.Errorf("sched: machine halted: %s: %w", f.Why, snp.ErrHalted)
	}
	if s.round >= s.cfg.MaxRounds {
		return StepProgress, s.refuseStalled("round budget exhausted")
	}
	progressed := false

	// Serve every drain that has become eligible, in post order. Popping
	// shifts the queue down rather than reslicing it, so it keeps its
	// capacity and PostDrain appends without reallocating.
	for len(s.drains) > 0 && s.drains[0].due <= s.round {
		d := s.drains[0]
		n := copy(s.drains, s.drains[1:])
		s.drains[n] = drainReq{}
		s.drains = s.drains[:n]
		if err := s.runDrain(d); err != nil {
			return StepProgress, err
		}
		progressed = true
	}

	runnable := 0
	for _, v := range s.vcpus {
		if v.state == stateRunnable {
			runnable++
		}
	}
	s.tel.RunQueue.Observe(uint64(runnable))

	if v := s.pick(); v != nil {
		if err := s.runSlice(v); err != nil {
			return StepProgress, err
		}
		progressed = true
	}
	s.round++

	done := true
	blocked := false
	for _, v := range s.vcpus {
		switch v.state {
		case stateRunnable:
			done = false
		case stateBlocked:
			done, blocked = false, true
		}
	}
	if done {
		return StepDone, nil
	}
	if !progressed && len(s.drains) == 0 {
		if blocked {
			return StepAllBlocked, nil
		}
		// Unreachable by construction (a runnable VCPU always yields a
		// slice), kept as a belt-and-suspenders liveness guard.
		return StepProgress, s.refuseStalled("no runnable progress")
	}
	return StepProgress, nil
}

// Run drives the VCPUs to completion: each round serves due drains (FIFO)
// then steps one runnable task picked by seeded weighted lottery. It
// returns when every task is Done, or with an error on halt, lost wake-up
// or stall — never by spinning forever.
func (s *Scheduler) Run() (Stats, error) {
	for {
		st, err := s.Step()
		if err != nil {
			return s.stats(), err
		}
		switch st {
		case StepDone:
			return s.stats(), nil
		case StepAllBlocked:
			// No fleet stepper to deliver an external wake-up: a blocked
			// set with no drain pending can never run again.
			return s.stats(), s.refuseStalled("no wake source")
		}
	}
}

// Stats returns the per-VCPU ledger accumulated so far. Run returns the
// same snapshot; the fleet stepper reads it after driving Step directly.
func (s *Scheduler) Stats() Stats { return s.stats() }

// pick selects the next runnable VCPU through the configured Chooser:
// deterministic given the chooser's state, proportionally fair under the
// default lottery. Returns nil when nothing is runnable (all blocked or
// done — drains may still be pending).
func (s *Scheduler) pick() *vcpuState {
	s.cands = s.cands[:0]
	total := 0
	for _, v := range s.vcpus {
		if v.state == stateRunnable {
			s.cands = append(s.cands, Candidate{VCPU: v.id, Weight: v.weight})
			total += v.weight
		}
	}
	if total == 0 {
		return nil
	}
	i := s.chooser.ChooseVCPU(s.cands, total)
	if i < 0 || i >= len(s.cands) {
		// A broken chooser is an assembly bug; degrade to the lowest id
		// rather than crash mid-schedule.
		i = 0
	}
	return s.vcpus[s.cands[i].VCPU]
}

// runSlice steps one task for a slice, attributing every cycle charged
// during the step to the owning VCPU.
func (s *Scheduler) runSlice(v *vcpuState) error {
	s.m.SetObsVCPU(v.id)
	start := s.m.Clock().Cycles()
	st, err := v.task.Step(v.id)
	elapsed := s.m.Clock().Cycles() - start
	v.stats.Slices++
	v.stats.SliceCycles += elapsed
	s.tel.SliceCycles.Observe(elapsed)
	s.m.ObserveSchedSlice(v.id, SliceTask, start)
	if err != nil {
		return fmt.Errorf("sched: VCPU %d: %w", v.id, err)
	}
	switch st {
	case Done:
		v.state = stateDone
	case Blocked:
		if v.wake {
			// The wake-up raced the block: consume it, stay runnable.
			v.wake = false
			v.stats.Wakeups++
			v.state = stateRunnable
		} else {
			v.state = stateBlocked
			v.blockedAt = s.m.Clock().Cycles()
		}
	default:
		v.state = stateRunnable
	}
	return nil
}

// runDrain performs one deferred ring drain, charged to the owning VCPU.
// For IRQ drains it then verifies the completion interrupt actually woke
// the owner: if the owner is still blocked the host misrouted or swallowed
// the interrupt, and the scheduler refuses with audit evidence instead of
// waiting for a wake-up that will never come.
func (s *Scheduler) runDrain(d drainReq) error {
	v := s.vcpus[d.vcpu]
	s.m.SetObsVCPU(d.vcpu)
	start := s.m.Clock().Cycles()
	err := d.fire()
	elapsed := s.m.Clock().Cycles() - start
	v.stats.Drains++
	v.stats.DrainCycles += elapsed
	s.tel.DrainWait.Observe(s.round - d.posted)
	s.m.ObserveSchedSlice(d.vcpu, SliceDrain, start)
	if err != nil {
		return fmt.Errorf("sched: drain on VCPU %d: %w", d.vcpu, err)
	}
	if d.expectWake && v.state == stateBlocked {
		s.m.ObserveDenied(snp.DeniedIntrRoute, uint64(d.vcpu))
		return fmt.Errorf("sched: VCPU %d: %w", d.vcpu, ErrLostWakeup)
	}
	return nil
}

// refuseStalled records DeniedIntrRoute evidence for every stranded VCPU
// and returns ErrStalled — the controlled alternative to deadlocking.
func (s *Scheduler) refuseStalled(why string) error {
	stranded := 0
	for _, v := range s.vcpus {
		if v.state == stateBlocked {
			s.m.ObserveDenied(snp.DeniedIntrRoute, uint64(v.id))
			stranded++
		}
	}
	return fmt.Errorf("sched: %s (%d VCPUs stranded): %w", why, stranded, ErrStalled)
}

func (s *Scheduler) stats() Stats {
	st := Stats{Rounds: s.round, PerVCPU: make([]VCPUStats, len(s.vcpus))}
	for i, v := range s.vcpus {
		st.PerVCPU[i] = v.stats
		st.Slices += v.stats.Slices
		st.Drains += v.stats.Drains
		st.Wakeups += v.stats.Wakeups
	}
	return st
}

// Fingerprint folds the scheduler's logical state into an FNV-1a hash: per
// VCPU the run state and wake latch, and the drain queue's (vcpu,
// expectWake, due-delta) entries in post order. Deliberately excluded are
// the round counter, the cycle ledger and telemetry — two different
// interleavings that converge on the same runnable/blocked/queued shape
// hash equal, which is what makes the model checker's visited-state
// deduplication prune anything. Deterministic across processes (no seeded
// hash), so exploration statistics are replayable claims.
func (s *Scheduler) Fingerprint() uint64 {
	h := fnvOffset
	for _, v := range s.vcpus {
		h = fnvByte(h, byte(v.state))
		if v.wake {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
	}
	h = fnvU64(h, uint64(len(s.drains)))
	for _, d := range s.drains {
		h = fnvU64(h, uint64(d.vcpu))
		if d.expectWake {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
		h = fnvU64(h, d.due-s.round) // relative: due times age with the round
	}
	return h
}

// FNV-1a, inlined so Fingerprint stays allocation-free on the hot
// exploration path.
const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvU64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// JainIndex is Jain's fairness index over xs: 1.0 when perfectly equal,
// approaching 1/n as one value dominates. Zero input yields 1 (vacuously
// fair), so empty benches stay well-defined.
func JainIndex(xs []uint64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sumSq += f * f
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// The model under check: one deterministic Veil CVM driven through the SMP
// scheduler by Config.Procs ring tenants (cvm.RingPlan on the interrupt
// completion channel, the one the adversary attacks), with the adversary's
// choice points wired into the scheduler pick, the hypervisor's interrupt
// delivery, and a movable RMPADJUST revocation. runPath replays one pick
// prefix from a cold boot and classifies the outcome.
package mc

import (
	"errors"
	"fmt"

	"veil/internal/audit"
	"veil/internal/cvm"
	"veil/internal/hv"
	"veil/internal/kernel"
	"veil/internal/mm"
	"veil/internal/obs"
	"veil/internal/sched"
	"veil/internal/snp"
)

// Outcome classifies how one explored path ended.
type Outcome string

const (
	// OutcomeCompleted: every task finished. Always acceptable — a hostile
	// choice that happened to be harmless (e.g. an interrupt dropped while
	// nobody was blocked on it) is a defended non-event.
	OutcomeCompleted Outcome = "completed"
	// OutcomeHalted: the machine halted. Acceptable only on a path with a
	// hostile choice (the halt *is* the defence: #NPF on a revoked access
	// or a refused relay); a halt on an all-honest path is a violation.
	OutcomeHalted Outcome = "halted"
	// OutcomeRefused: the scheduler refused to keep scheduling
	// (ErrLostWakeup/ErrStalled). Acceptable only when the host was
	// hostile to a delivery and DeniedIntrRoute evidence is in the flight
	// ring — a refusal must always be able to say why.
	OutcomeRefused Outcome = "refused"
)

// pathRun is everything runPath learns about one path.
type pathRun struct {
	trace  []Choice // full choice trace (prefix replayed, then defaults)
	hashes []uint64 // pre-choice state fingerprint per trace entry

	outcome    Outcome
	detail     string   // human-readable outcome note
	violations []string // empty iff the path upholds every invariant

	hostileIntr bool // some delivery used a non-relay mode
	injected    bool // the RMPADJUST revocation fired

	ops   uint64 // completed service calls across all tasks
	steps uint64 // scheduler rounds driven

	// c is the final machine state, retained only when runPath is asked to
	// keep it (counterexample post-mortems); otherwise it is released.
	c *cvm.CVM
}

// hostile reports whether any adversarial choice actually happened on the
// path (a non-default pick at a hostile point).
func (r *pathRun) hostile() bool { return r.hostileIntr || r.injected }

// mcFrames adapts the kernel's physical allocator to mm.FrameSource for
// the stale-TLB probe address space.
type mcFrames struct{ k *kernel.Kernel }

func (f mcFrames) AllocFrame() (uint64, error) { return f.k.Allocator().Alloc() }
func (f mcFrames) FreeFrame(p uint64) error    { return f.k.Allocator().Free(p) }

// mcProbeVirt is the virtual address of the pre-warmed translation the
// RMPADJUST injection revokes and re-probes.
const mcProbeVirt = uint64(0x7000_0000)

// warmProbe maps one OS-owned frame and reads through it, leaving a live
// translation (and cached RMP verdict) in the TLB — the §8.3 stale-TLB
// attack surface the rmp-inject choice point revokes.
func warmProbe(c *cvm.CVM) (snp.AccessContext, uint64, error) {
	as, err := mm.NewAddressSpace(c.M, snp.VMPL3, mcFrames{c.K})
	if err != nil {
		return snp.AccessContext{}, 0, err
	}
	frame, err := c.K.Allocator().Alloc()
	if err != nil {
		return snp.AccessContext{}, 0, err
	}
	if err := as.Map(mcProbeVirt, frame, snp.PTEWrite|snp.PTEUser); err != nil {
		return snp.AccessContext{}, 0, err
	}
	ctx := as.Context(snp.CPL0)
	if err := ctx.WriteU64(mcProbeVirt, 0x600D_DA7A); err != nil {
		return snp.AccessContext{}, 0, err
	}
	if _, err := ctx.ReadU64(mcProbeVirt); err != nil {
		return snp.AccessContext{}, 0, err
	}
	return ctx, frame, nil
}

// driverChooser routes the scheduler's pick through the choice stream.
type driverChooser struct{ d *driver }

func (dc driverChooser) ChooseVCPU(cands []sched.Candidate, total int) int {
	return dc.d.choose(PointSchedPick, len(cands), func(i int) string {
		return fmt.Sprintf("vcpu-%d", cands[i].VCPU)
	})
}

func rmpInjectLabel(i int) string {
	if i == 0 {
		return "hold"
	}
	return "revoke+probe"
}

// runPath boots a fresh CVM and replays one pick prefix to its end state.
// keep retains the final machine (and suppresses Release) so the caller
// can dump a post-mortem; exploration passes keep=false.
func runPath(cfg Config, prefix []int, keep bool) (*pathRun, error) {
	cfg = cfg.withDefaults()
	run := &pathRun{}

	// Every path boots the byte-identical machine from the seed, so state
	// divergence is attributable to choices alone.
	c, err := cvm.Boot(cvm.Options{
		MemBytes: cfg.MemBytes, VCPUs: cfg.VCPUs, Veil: true, LogPages: cfg.LogPages,
		Rand: cvm.SeededRand(cfg.Seed),
	})
	if err != nil {
		return nil, fmt.Errorf("mc: boot: %w", err)
	}
	release := func() {
		if !keep {
			c.M.Release()
		} else {
			run.c = c
		}
	}

	a := audit.Attach(c.M, audit.Config{})

	// Warm the probed translation before arming the adversary: the warm-up
	// itself is part of the fixed boot preamble, not a choice.
	var probeCtx snp.AccessContext
	var probeFrame uint64
	if cfg.RMPInject {
		if probeCtx, probeFrame, err = warmProbe(c); err != nil {
			release()
			return nil, fmt.Errorf("mc: warm probe: %w", err)
		}
	}
	if cfg.BrokenTLB {
		c.M.SetBrokenTLBNoInvalidate(true)
	}

	d := &driver{prefix: prefix}
	s := sched.New(sched.Config{
		Machine: c.M, VCPUs: cfg.VCPUs, Chooser: driverChooser{d: d},
		DrainLatency: cfg.DrainLatency, MaxRounds: uint64(cfg.MaxSteps) + 16,
	})
	if cfg.IntrModes {
		c.HV.SetInterruptModeChooser(func(vcpuID int) hv.InterruptMode {
			pick := d.choose(PointIntrMode, int(hv.NumInterruptModes), intrModeLabel)
			if pick != 0 {
				run.hostileIntr = true
			}
			return hv.InterruptMode(pick)
		})
	}

	tasks, err := c.AddRingTenants(s, cvm.RingPlan{
		Name: "mc", Procs: cfg.Procs, Batches: cfg.Batches, BatchSize: cfg.BatchSize, Intr: true,
	})
	if err != nil {
		release()
		return nil, fmt.Errorf("mc: ring tenants: %w", err)
	}

	// The dedup fingerprint: the scheduler's logical shape, each task's
	// progress, the machine's RMP/TLB epoch counters, and the hostile
	// history flags (classification depends on them, so states that differ
	// only in how they got hostile must not merge). Round and cycle
	// counters are deliberately excluded — interleavings that converge on
	// the same logical state hash equal, which is what dedup prunes.
	d.hashFn = func() uint64 {
		h := fnvMix(fnvOffset, s.Fingerprint())
		for _, t := range tasks {
			if t == nil {
				h = fnvMix(h, ^uint64(0))
				continue
			}
			h = fnvMix(h, uint64(t.BatchesDone()))
			h = fnvMix(h, uint64(t.Pending()))
			h = fnvMix(h, t.Ops())
		}
		h = fnvMix(h, c.M.RMPMutations())
		h = fnvMix(h, c.M.MemStats().TLBRMPFlushes)
		h = fnvMix(h, c.M.ValidatedCount())
		var flags uint64
		if run.hostileIntr {
			flags |= 1
		}
		if run.injected {
			flags |= 2
		}
		return fnvMix(h, flags)
	}

	// auditDelta drains newly-reported auditor violations into the path.
	prevViol, prevDetail := uint64(0), 0
	auditDelta := func() bool {
		if v := a.Violations(); v != prevViol {
			prevViol = v
			det := a.Details()
			if len(det) > prevDetail {
				run.violations = append(run.violations, det[prevDetail:]...)
				prevDetail = len(det)
			} else {
				run.violations = append(run.violations, fmt.Sprintf("audit: %d violations", v))
			}
			return true
		}
		return false
	}

	finish := func(outcome Outcome, detail string) {
		run.outcome, run.detail = outcome, detail
		a.Sweep()
		auditDelta()
		for _, t := range tasks {
			if t != nil {
				run.ops += t.Ops()
			}
		}
		run.trace, run.hashes = d.trace, d.hashes
		release()
	}

	// classifyErr turns a scheduler/machine error into an outcome,
	// recording a violation when a defence fired on an honest path or a
	// refusal lacks its evidence.
	classifyErr := func(err error) {
		switch {
		case errors.Is(err, snp.ErrHalted), snp.IsNPF(err), c.M.Halted() != nil:
			// A halt or #NPF ends the run whether the fault error was
			// wrapped with ErrHalted (scheduler round preamble) or surfaced
			// raw from inside a drain (refused interrupt relay).
			if !run.hostile() {
				run.violations = append(run.violations,
					fmt.Sprintf("halt on all-honest path: %v", err))
			}
			finish(OutcomeHalted, err.Error())
		case errors.Is(err, sched.ErrLostWakeup), errors.Is(err, sched.ErrStalled):
			if !run.hostileIntr {
				run.violations = append(run.violations,
					fmt.Sprintf("scheduler refusal on path with honest deliveries: %v", err))
			} else if !flightHasDenied(c.M, snp.DeniedIntrRoute) {
				run.violations = append(run.violations,
					"refusal without DeniedIntrRoute flight evidence")
			}
			finish(OutcomeRefused, err.Error())
		default:
			run.violations = append(run.violations, fmt.Sprintf("unexpected error: %v", err))
			finish(OutcomeRefused, err.Error())
		}
	}

	for run.steps = 0; run.steps < uint64(cfg.MaxSteps); run.steps++ {
		// The movable RMPADJUST window: while armed, every scheduling round
		// is an injection opportunity.
		if cfg.RMPInject && !run.injected {
			if d.choose(PointRMPInject, 2, rmpInjectLabel) == 1 {
				run.injected = true
				if err := c.M.RMPAdjust(snp.VMPL0, probeFrame, snp.VMPL3, snp.PermNone); err != nil {
					run.violations = append(run.violations,
						fmt.Sprintf("rmp-inject: RMPADJUST refused: %v", err))
					finish(OutcomeRefused, err.Error())
					return run, nil
				}
				_, rerr := probeCtx.ReadU64(mcProbeVirt)
				switch {
				case rerr == nil:
					// The defining stale-TLB violation: the revoked
					// translation served a read (only reachable with the
					// BrokenTLB mutation — the teeth path).
					run.violations = append(run.violations,
						"stale-tlb: revoked translation served a read after RMPADJUST")
					finish(OutcomeHalted, "stale read served")
					return run, nil
				case snp.IsNPF(rerr) && c.M.Halted() != nil:
					finish(OutcomeHalted, fmt.Sprintf("revoked probe faulted: %v", rerr))
					return run, nil
				default:
					run.violations = append(run.violations,
						fmt.Sprintf("rmp-inject probe: unexpected result: %v", rerr))
					finish(OutcomeRefused, fmt.Sprintf("%v", rerr))
					return run, nil
				}
			}
		}

		res, err := s.Step()
		if err != nil {
			classifyErr(err)
			return run, nil
		}
		if auditDelta() {
			finish(OutcomeHalted, "audit invariant violation")
			return run, nil
		}
		switch res {
		case sched.StepDone:
			finish(OutcomeCompleted, "all tasks completed")
			return run, nil
		case sched.StepAllBlocked:
			// No fleet stepper: a blocked set with no wake source can never
			// run again. One Run round converts this into the evidenced
			// refusal path (DeniedIntrRoute per stranded VCPU).
			_, rerr := s.Run()
			if rerr == nil {
				rerr = sched.ErrStalled
			}
			classifyErr(rerr)
			return run, nil
		}
	}

	run.violations = append(run.violations,
		fmt.Sprintf("no termination within %d scheduler rounds (livelock)", cfg.MaxSteps))
	finish(OutcomeRefused, "round budget exhausted")
	return run, nil
}

// flightHasDenied reports whether the flight ring holds a ClassDenied
// event with the given reason — the evidence a refusal must carry.
func flightHasDenied(m *snp.Machine, reason snp.DeniedReason) bool {
	for _, e := range m.FlightTail() {
		if e.Class == obs.ClassDenied && e.Arg1 == uint64(reason) {
			return true
		}
	}
	return false
}

package attacks

// Interrupt-misdelivery attacks: the host owns interrupt injection, so it
// can refuse to relay a ring-completion interrupt, deliver it to the wrong
// VCPU, or swallow it entirely. The first variant must halt the CVM (the
// Table 2 defence, now reached through the batched ring path); the other
// two are invisible to the architecture — nothing faults — so the defence
// is the SMP scheduler's lost-wakeup detection: refuse to keep scheduling
// and leave DeniedIntrRoute evidence rather than deadlock.

import (
	"errors"
	"fmt"

	"veil/internal/audit"
	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/hv"
	"veil/internal/sched"
	"veil/internal/snp"
)

// freshVeilSMP is freshVeil with a chosen VCPU count, for attacks that need
// a second VCPU to misroute onto.
func freshVeilSMP(vcpus int) (*cvm.CVM, error) {
	seedCounter++
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: vcpus, Veil: true, LogPages: 8,
		Rand: cvm.SeededRand(seedCounter),
	})
	lastBoot, lastAuditor = c, nil
	if err == nil && auditing {
		lastAuditor = audit.Attach(c.M, audit.Config{})
	}
	return c, err
}

// blockOnCompletion drives one victim ring tenant through the scheduler:
// one append with ring IRQs enabled, the doorbell posted asynchronously,
// then a block in WaitIntr until the completion interrupt arrives. Under
// honest relay it returns nil; under hostile delivery the scheduler's
// verdict comes back.
func blockOnCompletion(c *cvm.CVM, vcpus int) error {
	// DrainLatency > 1 so the victim is already blocked in WaitIntr when
	// the drain fires — the window where the completion interrupt is the
	// only thing that can wake it.
	s := sched.New(sched.Config{Machine: c.M, VCPUs: vcpus, Seed: seedCounter, DrainLatency: 3})
	if _, err := c.AddRingTenants(s, cvm.RingPlan{Name: "victim", Procs: 1, Batches: 1, BatchSize: 1, Intr: true}); err != nil {
		return err
	}
	_, err := s.Run()
	return err
}

// Interrupts runs the interrupt-misdelivery attacks.
func Interrupts() []Result {
	return execute([]attack{
		{
			name:    "Refuse completion-interrupt relay (hypervisor)",
			defence: "CVM halts with #NPF in the interrupted domain",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				c.HV.SetInterruptRelay(hv.RefuseRelay, core.DomUNT)
				if err := c.Stub.EnableRingIRQ(true); err != nil {
					return false, err.Error()
				}
				if _, err := c.Stub.SubmitSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend, Payload: []byte("x")}); err != nil {
					return false, err.Error()
				}
				// The completion interrupt is raised inside the drain, while
				// Dom-SRV is current; the refused relay lands it right there.
				derr := c.Stub.Doorbell()
				f := c.M.Halted()
				return derr != nil && f != nil && f.Kind == snp.FaultNPF,
					fmt.Sprintf("doorbell: %v; halt: %v", derr, f)
			},
		},
		{
			name:    "Misroute completion interrupt to another VCPU",
			defence: "Scheduler lost-wakeup refusal + DeniedIntrRoute evidence",
			run: func() (bool, string) {
				c, err := freshVeilSMP(2)
				if err != nil {
					return false, err.Error()
				}
				c.HV.SetInterruptRelay(hv.MisrouteVCPU, core.DomUNT)
				rerr := blockOnCompletion(c, 2)
				return errors.Is(rerr, sched.ErrLostWakeup) && c.M.Halted() == nil,
					fmt.Sprintf("%v", rerr)
			},
		},
		{
			name:    "Drop completion interrupt (hypervisor)",
			defence: "Scheduler lost-wakeup refusal + DeniedIntrRoute evidence",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				c.HV.SetInterruptRelay(hv.DropInterrupt, core.DomUNT)
				rerr := blockOnCompletion(c, 1)
				return errors.Is(rerr, sched.ErrLostWakeup) && c.M.Halted() == nil,
					fmt.Sprintf("%v", rerr)
			},
		},
	})
}

package cvm

// The ring tenant: processes appending batches of VeilS-Log records over
// the batched service ring, each waiting for its batch on the completion
// interrupt or by spinning on the completion head. The SMP experiment,
// the model checker and the interrupt attacks all run this one task.

import (
	"errors"
	"fmt"

	"veil/internal/core"
	"veil/internal/sched"
)

// RingPollSpins is the busy-wait length of one poll slice: 250 checks of
// the completion head at CyclesRingPoll each.
const RingPollSpins = 250

// RingPlan is a batched VeilS-Log workload.
type RingPlan struct {
	// Name names the processes ("<Name>-worker-<i>") and the records
	// ("<Name> v<vcpu> b<batch> op<i>").
	Name string
	// Procs is the number of submitting processes; the kernel places each
	// on its own VCPU.
	Procs int
	// Batches × BatchSize is each process's workload (BatchSize <=
	// RingSlots).
	Batches   int
	BatchSize int
	// Intr waits for each batch in WaitIntr, woken by the completion
	// interrupt; otherwise every wait slice spins RingPollSpins checks.
	Intr bool
}

// RingTask is one process's share of a RingPlan: submit a batch, ring the
// doorbell asynchronously, wait for the completion, collect and check
// every response, repeat. A cooperative state machine stepped by the
// scheduler.
type RingTask struct {
	st      *core.OSStub
	plan    *RingPlan
	pending []core.PendingCall
	payload []byte
	done    int
	ops     uint64
	waits   uint64
}

// BatchesDone is the number of batches collected.
func (t *RingTask) BatchesDone() int { return t.done }

// Pending is the number of submissions of the batch in flight.
func (t *RingTask) Pending() int { return len(t.pending) }

// Ops is the number of completed service calls.
func (t *RingTask) Ops() uint64 { return t.ops }

// WaitSlices is the number of poll slices that found the batch pending.
func (t *RingTask) WaitSlices() uint64 { return t.waits }

func (t *RingTask) Step(vcpu int) (sched.Status, error) {
	if len(t.pending) == 0 {
		if t.done >= t.plan.Batches {
			return sched.Done, nil
		}
		for j := 0; j < t.plan.BatchSize; j++ {
			t.payload = fmt.Appendf(t.payload[:0], "%s v%d b%d op%d", t.plan.Name, vcpu, t.done, j)
			pc, err := t.st.SubmitSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogAppend, Payload: t.payload})
			if err != nil {
				return sched.Yield, err
			}
			t.pending = append(t.pending, pc)
		}
		return sched.Yield, t.st.DoorbellAsync()
	}

	last := t.pending[len(t.pending)-1]
	if t.plan.Intr {
		if _, err := t.st.WaitIntr(last); err != nil {
			if errors.Is(err, core.ErrWouldBlock) {
				return sched.Blocked, nil
			}
			return sched.Yield, err
		}
	} else {
		_, ok, err := t.st.PollSpin(last, RingPollSpins)
		if err != nil {
			return sched.Yield, err
		}
		if !ok {
			t.waits++
			return sched.Yield, nil
		}
	}

	for _, pc := range t.pending {
		r, ok, err := t.st.Poll(pc)
		if err != nil {
			return sched.Yield, err
		}
		if !ok {
			return sched.Yield, fmt.Errorf("cvm: ring %s seq %d incomplete after batch drain", t.plan.Name, pc.Seq)
		}
		if r.Status != core.StatusOK {
			return sched.Yield, fmt.Errorf("cvm: ring %s seq %d status %d", t.plan.Name, pc.Seq, r.Status)
		}
		t.ops++
	}
	t.pending = t.pending[:0]
	t.done++
	return sched.Yield, nil
}

// AddRingTenants spawns plan.Procs processes, lets the kernel place each
// on a VCPU, points that VCPU's stub at s, sets its ring IRQ flag and adds
// one RingTask per process to s. The tasks come back indexed by VCPU, nil
// where no process was placed; completion interrupts wake s.
func (c *CVM) AddRingTenants(s *sched.Scheduler, plan RingPlan) ([]*RingTask, error) {
	c.OnInterrupt(s.Wake)
	tasks := make([]*RingTask, len(c.Stubs))
	for i := 0; i < plan.Procs; i++ {
		p := c.K.Spawn(fmt.Sprintf("%s-worker-%d", plan.Name, i))
		v, err := c.K.PlaceProcess(p.PID)
		if err != nil {
			return nil, err
		}
		st := c.StubFor(v)
		st.SetDispatcher(s)
		if err := st.EnableRingIRQ(plan.Intr); err != nil {
			return nil, err
		}
		tasks[v] = &RingTask{st: st, plan: &plan}
		if err := s.Add(v, 1, tasks[v]); err != nil {
			return nil, err
		}
	}
	return tasks, nil
}

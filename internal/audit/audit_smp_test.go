package audit_test

import (
	"fmt"
	"strings"
	"testing"

	"veil/internal/audit"
	"veil/internal/cvm"
	"veil/internal/sched"
	"veil/internal/snp"
)

// smpWorkload boots a vcpus-wide Veil CVM with a frequent-cadence auditor
// attached and drives one ring tenant per VCPU through the scheduler on
// the interrupt completion channel.
func smpWorkload(t *testing.T, vcpus int, seed int64) (*cvm.CVM, *audit.Auditor, *sched.Scheduler, []*cvm.RingTask) {
	t.Helper()
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: vcpus, Veil: true, LogPages: 16,
		Rand: cvm.SeededRand(seed),
	})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	a := audit.Attach(c.M, audit.Config{FastEvery: 16, SweepEvery: 64})
	s := sched.New(sched.Config{Machine: c.M, VCPUs: vcpus, Seed: seed, DrainLatency: 2})
	tasks, err := c.AddRingTenants(s, cvm.RingPlan{Name: "audit-smp", Procs: vcpus, Batches: 2, BatchSize: 4, Intr: true})
	if err != nil {
		t.Fatalf("ring tenants: %v", err)
	}
	return c, a, s, tasks
}

// Across 2, 3 and 4 VCPUs of interleaved ring traffic, every invariant in
// the catalog stays silent: no violations, no post-mortem, and the checks
// actually ran (both cadences fired).
func TestInvariantsHoldUnderSMPWorkloads(t *testing.T) {
	for _, vcpus := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("vcpus=%d", vcpus), func(t *testing.T) {
			c, a, s, tasks := smpWorkload(t, vcpus, 4000+int64(vcpus))
			if _, err := s.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			a.Sweep()
			if a.Violations() != 0 {
				t.Fatalf("SMP run produced %d violations: %v", a.Violations(), a.Details())
			}
			if a.FastRuns() == 0 || a.SweepRuns() == 0 {
				t.Fatalf("auditor never paced in (fast=%d sweep=%d)", a.FastRuns(), a.SweepRuns())
			}
			if pm := c.M.PostMortem(); pm != nil {
				t.Fatalf("clean SMP run froze a post-mortem: %q", pm.Reason)
			}
			var ops uint64
			for _, tk := range tasks {
				ops += tk.Ops()
			}
			if want := uint64(vcpus * 2 * 4); ops != want {
				t.Fatalf("completed %d ops, want %d", ops, want)
			}
		})
	}
}

// The teeth variant: mid-workload, TLB invalidation is suppressed and a
// frame is revoked out from under a warm verdict cache. The auditor
// attached to the running SMP machine must catch it — rmp-tlb-epoch (the
// O(1) epoch divergence) and tlb-verdicts (the end-to-end stale-verdict
// re-derivation) — and freeze a post-mortem naming the first check.
func TestSMPWorkloadBrokenTLBCaught(t *testing.T) {
	c, a, s, _ := smpWorkload(t, 2, 4100)

	// Let the workload make some progress so the TLB is warm with ring and
	// page-table verdicts before the revocation.
	for i := 0; i < 12; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	c.M.SetBrokenTLBNoInvalidate(true)
	frame, err := c.K.AllocFrame()
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if err := c.M.PValidate(snp.VMPL0, frame, false); err != nil {
		t.Fatalf("pvalidate: %v", err)
	}
	a.Sweep()

	if a.ViolationsBy(audit.CheckRMPTLBEpoch) == 0 {
		t.Fatalf("epoch divergence not caught under SMP load: %v", a.Details())
	}
	pm := c.M.PostMortem()
	if pm == nil {
		t.Fatal("violation under SMP load did not freeze a post-mortem")
	}
	if !strings.Contains(pm.Reason, "invariant:") {
		t.Fatalf("post-mortem reason %q does not name an invariant", pm.Reason)
	}
}

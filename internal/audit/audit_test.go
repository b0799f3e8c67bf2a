package audit_test

import (
	"strings"
	"testing"

	"veil/internal/audit"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/obs"
	"veil/internal/sdk"
	"veil/internal/snp"
)

func bootVeil(t *testing.T, seed int64, rec *obs.Recorder) *cvm.CVM {
	t.Helper()
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: 1, Veil: true, LogPages: 8,
		Rand: cvm.SeededRand(seed), Recorder: rec,
	})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return c
}

// exercise drives a representative syscall mix through the kernel.
func exercise(t *testing.T, c *cvm.CVM) {
	t.Helper()
	p := c.K.Spawn("audit-test")
	lc := &sdk.DirectLibc{K: c.K, P: p}
	for i := 0; i < 50; i++ {
		fd, err := lc.Open("/tmp/audit.txt", kernel.OCreat|kernel.ORdwr, 0o644)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := lc.Pwrite(fd, []byte("audit test payload"), 0); err != nil {
			t.Fatalf("pwrite: %v", err)
		}
		if err := lc.Close(fd); err != nil {
			t.Fatalf("close: %v", err)
		}
		addr, err := lc.Mmap(2*snp.PageSize, kernel.ProtRead|kernel.ProtWrite)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if err := lc.Munmap(addr); err != nil {
			t.Fatalf("munmap: %v", err)
		}
	}
}

// TestCleanRunStaysSilent: a healthy Veil CVM under a frequent-cadence
// auditor produces zero violations, no ClassInvariant events, and no
// post-mortem.
func TestCleanRunStaysSilent(t *testing.T) {
	rec := obs.NewRecorder(1 << 14)
	c := bootVeil(t, 7, rec)
	a := audit.Attach(c.M, audit.Config{FastEvery: 16, SweepEvery: 64})
	exercise(t, c)
	a.Sweep()
	if a.Violations() != 0 {
		t.Fatalf("clean run produced %d violations: %v", a.Violations(), a.Details())
	}
	if a.FastRuns() == 0 || a.SweepRuns() == 0 {
		t.Fatalf("auditor never ran (fast=%d sweeps=%d): cadence wiring broken", a.FastRuns(), a.SweepRuns())
	}
	if n := rec.Metrics().Count(obs.ClassInvariant); n != 0 {
		t.Fatalf("clean run recorded %d invariant events", n)
	}
	if pm := c.M.PostMortem(); pm != nil {
		t.Fatalf("clean run froze a post-mortem: %q", pm.Reason)
	}
}

// TestAuditorChargesNoCycles: the auditor must be invisible to the
// deterministic outputs — an audited run finishes at exactly the same
// virtual cycle as an unaudited run of the same seed and workload.
func TestAuditorChargesNoCycles(t *testing.T) {
	plain := bootVeil(t, 9, nil)
	exercise(t, plain)

	audited := bootVeil(t, 9, nil)
	a := audit.Attach(audited.M, audit.Config{FastEvery: 1, SweepEvery: 8})
	exercise(t, audited)
	a.Sweep()

	if p, q := plain.M.Clock().Cycles(), audited.M.Clock().Cycles(); p != q {
		t.Fatalf("auditor perturbed the virtual clock: %d vs %d cycles", p, q)
	}
	if a.Violations() != 0 {
		t.Fatalf("unexpected violations: %v", a.Details())
	}
}

// TestBrokenTLBInvalidationDetected gives the auditor teeth: a TLB that
// skips invalidation across an RMP mutation must trip CheckRMPTLBEpoch,
// emit a ClassInvariant event and freeze a post-mortem naming the check.
func TestBrokenTLBInvalidationDetected(t *testing.T) {
	rec := obs.NewRecorder(1 << 14)
	c := bootVeil(t, 11, rec)
	a := audit.Attach(c.M, audit.Config{FastEvery: 1})

	c.M.SetBrokenTLBNoInvalidate(true)
	defer c.M.SetBrokenTLBNoInvalidate(false)
	frame, err := c.K.AllocFrame()
	if err != nil {
		t.Fatalf("alloc frame: %v", err)
	}
	// Rescind the page's validation: an architectural RMP mutation whose
	// verdict-cache flush the broken TLB silently swallows.
	if err := c.M.PValidate(snp.VMPL0, frame, false); err != nil {
		t.Fatalf("pvalidate: %v", err)
	}
	a.Sweep()

	if a.ViolationsBy(audit.CheckRMPTLBEpoch) == 0 {
		t.Fatalf("broken TLB invalidation not detected; details=%v", a.Details())
	}
	if n := rec.Metrics().Count(obs.ClassInvariant); n == 0 {
		t.Fatal("no ClassInvariant event recorded")
	}
	pm := c.M.PostMortem()
	if pm == nil {
		t.Fatal("violation did not freeze a post-mortem")
	}
	if !strings.Contains(pm.Reason, audit.CheckRMPTLBEpoch.String()) {
		t.Fatalf("post-mortem reason %q does not name the check", pm.Reason)
	}
	if len(pm.Events) == 0 {
		t.Fatal("post-mortem carries no flight events")
	}
}

// TestVMPL3WritableKernelCodeDetected: a kernel data page on which VMPL3
// regains supervisor execution is exactly what kernel W⊕X rules out, so
// the vmpl3-wx sweep must name it, and only it.
func TestVMPL3WritableKernelCodeDetected(t *testing.T) {
	c := bootVeil(t, 13, nil)
	a := audit.Attach(c.M, audit.Config{})
	a.Sweep()
	if a.Violations() != 0 {
		t.Fatalf("clean boot: %v", a.Details())
	}
	frame, err := c.K.AllocFrame()
	if err != nil {
		t.Fatalf("alloc frame: %v", err)
	}
	if err := c.M.RMPAdjust(snp.VMPL0, frame, snp.VMPL3, snp.PermAll); err != nil {
		t.Fatalf("rmpadjust: %v", err)
	}
	a.Sweep()
	if got := a.ViolationsBy(audit.CheckVMPL3WX); got != 1 || a.Violations() != 1 {
		t.Fatalf("vmpl3-wx = %d of %d violations, want 1 of 1: %v", got, a.Violations(), a.Details())
	}
	if pm := c.M.PostMortem(); pm == nil || !strings.Contains(pm.Reason, "vmpl3-wx") {
		t.Fatalf("post-mortem %v does not name vmpl3-wx", pm)
	}
}

// TestCountersExport: the aux-counter source exposes the pacing and
// violation tallies under stable names.
func TestCountersExport(t *testing.T) {
	c := bootVeil(t, 13, nil)
	a := audit.Attach(c.M, audit.Config{})
	a.Sweep()
	names, values := a.Counters()
	if len(names) != len(values) {
		t.Fatalf("names/values length mismatch: %d vs %d", len(names), len(values))
	}
	want := map[string]bool{
		"audit-events": true, "audit-fast-runs": true, "audit-sweep-runs": true,
		"audit-violations": true, "audit-check-rmp-tlb-epoch": true,
		"audit-check-vmsa-unreadable": true, "audit-check-rmp-consistency": true,
		"audit-check-tlb-verdicts": true, "audit-check-unwritten-zero": true,
		"audit-check-vmpl3-wx": true,
	}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing counters: %v (got %v)", want, names)
	}
}

// TestCatalogIndicesStable: check indices appear in ClassInvariant events
// and golden post-mortems, so a new check is appended, never inserted.
func TestCatalogIndicesStable(t *testing.T) {
	want := []string{"rmp-tlb-epoch", "vmsa-unreadable", "rmp-consistency", "tlb-verdicts", "unwritten-zero", "vmpl3-wx"}
	if int(audit.NumChecks) != len(want) {
		t.Fatalf("catalog has %d checks, want %d", audit.NumChecks, len(want))
	}
	for i, name := range want {
		if got := audit.Check(i).String(); got != name {
			t.Fatalf("check %d is %q, want %q", i, got, name)
		}
	}
}

package snp

import (
	"testing"

	"veil/internal/obs"
)

// TestObserveHelpersFeedTraceAndRecorder checks the single-path invariant:
// the legacy Trace counters and the obs recorder are maintained by the same
// Observe* calls, so they can never drift apart.
func TestObserveHelpersFeedTraceAndRecorder(t *testing.T) {
	m := NewMachine(Config{MemBytes: 4 * PageSize, VCPUs: 1})
	rec := obs.NewRecorder(128)
	m.SetRecorder(rec)
	if m.Recorder() != rec {
		t.Fatal("Recorder() must return the attached recorder")
	}
	m.SetObsVCPU(1)

	m.ObserveVMGEXIT()
	m.ObserveVMENTER()
	ref := m.ObserveSyscallEnter(VMPL3, 2)
	m.ObserveSyscallExit(VMPL3, 2, 0, ref)
	m.ObserveAudit(VMPL1, 64)
	m.ObserveDomainSwitch(VMPL3, VMPL0, 0)
	m.ObserveInterrupt()
	m.ObserveEnclaveExit()

	tr := m.Trace()
	met := rec.Metrics()
	checks := []struct {
		name    string
		counter uint64
		class   obs.Class
	}{
		{"VMGExits", tr.VMGExits, obs.ClassVMGEXIT},
		{"VMEnters", tr.VMEnters, obs.ClassVMENTER},
		{"Syscalls", tr.Syscalls, obs.ClassSyscall},
		{"AuditRecords", tr.AuditRecords, obs.ClassAudit},
		{"DomainSwitches", tr.DomainSwitches, obs.ClassDomainSwitch},
		{"Interrupts", tr.Interrupts, obs.ClassInterrupt},
		{"EnclaveExits", tr.EnclaveExits, obs.ClassEnclaveExit},
	}
	for _, c := range checks {
		if c.counter != 1 {
			t.Errorf("Trace.%s = %d, want 1", c.name, c.counter)
		}
		if got := met.Count(c.class); got != 1 {
			t.Errorf("recorder count for %s = %d, want 1", c.class, got)
		}
	}
	// Events carry the VCPU hint set via SetObsVCPU.
	for _, e := range rec.Events() {
		if e.VCPU != 1 {
			t.Errorf("event %s on vcpu %d, want 1", e.Class, e.VCPU)
		}
	}
}

// TestChargeMirrorsIntoRecorder checks the clock → attribution-table hook.
func TestChargeMirrorsIntoRecorder(t *testing.T) {
	m := NewMachine(Config{MemBytes: 4 * PageSize, VCPUs: 1})
	rec := obs.NewRecorder(16)
	m.SetRecorder(rec)
	m.Clock().Charge(CostVMGEXIT, 3890)
	m.Clock().Charge(CostSyscall, 300)
	a := AttributionOf(rec.Metrics().CyclesByKind())
	if a[CostVMGEXIT] != 3890 || a[CostSyscall] != 300 {
		t.Fatalf("recorder attribution = %v", a.Map())
	}
	// Kind names were registered on attach.
	if got := rec.Metrics().KindName(int(CostVMGEXIT)); got != "VMGEXIT" {
		t.Fatalf("KindName = %q, want VMGEXIT", got)
	}
	if rec.Metrics().NumKinds() != NumCostKinds {
		t.Fatalf("NumKinds = %d, want %d", rec.Metrics().NumKinds(), NumCostKinds)
	}
}

// TestNilRecorderMachineZeroAllocs proves the "nil = zero overhead"
// contract at the machine layer: observing with no recorder attached must
// not allocate, with no sink at all, with the always-on flight ring (slots
// filled in place) and with only an audit hook (the event built on the
// stack).
func TestNilRecorderMachineZeroAllocs(t *testing.T) {
	for _, sinks := range []string{"none", "flight", "audit-hook"} {
		m := NewMachine(Config{MemBytes: 4 * PageSize, VCPUs: 1})
		switch sinks {
		case "flight":
			m.SetFlight(obs.NewFlight(0))
		case "audit-hook":
			m.SetAuditHook(func(obs.Event) {})
		}
		if err := m.HVAssignPage(PageSize); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			// The per-page instructions are runs of one page.
			if m.PValidate(VMPL0, PageSize, true) != nil || m.RMPAdjust(VMPL0, PageSize, VMPL1, PermRW) != nil ||
				m.PValidate(VMPL0, PageSize, false) != nil {
				t.Fatal("RMP instruction refused")
			}
			m.ObserveVMGEXIT()
			m.ObserveVMENTER()
			ref := m.ObserveSyscallEnter(VMPL3, 1)
			m.ObserveSyscallExit(VMPL3, 1, 0, ref)
			m.ObserveDomainSwitch(VMPL3, VMPL0, 0)
			m.Clock().Charge(CostVMGEXIT, 10)
		})
		if allocs != 0 {
			t.Fatalf("nil-recorder observe path (sinks: %s) allocated %v times per run, want 0", sinks, allocs)
		}
	}
}

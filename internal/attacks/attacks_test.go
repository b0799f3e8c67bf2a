package attacks

import "testing"

func assertAllDefended(t *testing.T, results []Result) {
	t.Helper()
	for _, r := range results {
		if !r.Defended {
			t.Errorf("BREACHED: %s (%s): %s", r.Attack, r.Defence, r.Detail)
		}
	}
}

func TestTable1FrameworkAttacksAllDefended(t *testing.T) {
	results := Framework()
	if len(results) != 8 {
		t.Fatalf("framework suite has %d attacks, want 8 (Table 1)", len(results))
	}
	assertAllDefended(t, results)
}

func TestTable2EnclaveAttacksAllDefended(t *testing.T) {
	results := Enclave()
	if len(results) != 14 {
		t.Fatalf("enclave suite has %d attacks, want 14 (Table 2, the Iago read count and descriptor, three VMRUN targets)", len(results))
	}
	assertAllDefended(t, results)
}

func TestValidationAttacksAllDefended(t *testing.T) {
	results := Validation()
	if len(results) != 8 {
		t.Fatalf("validation suite has %d attacks, want 8 (§8.3 and six W⊕X rows)", len(results))
	}
	assertAllDefended(t, results)
}

func TestStaleTLBAttacksAllDefended(t *testing.T) {
	results := TLB()
	if len(results) != 3 {
		t.Fatalf("tlb suite has %d attacks, want 3", len(results))
	}
	assertAllDefended(t, results)
}

func TestInterruptAttacksAllDefended(t *testing.T) {
	results := Interrupts()
	if len(results) != 3 {
		t.Fatalf("interrupt suite has %d attacks, want 3", len(results))
	}
	assertAllDefended(t, results)
}

// TestDefendedAttacksLeaveEvidence: every defended on-platform attack must
// leave at least one machine-visible trace — a fault or denial event in the
// flight recorder, a halt, or a frozen post-mortem. A defence the
// observability stack cannot see would be un-debuggable in the field.
func TestDefendedAttacksLeaveEvidence(t *testing.T) {
	var all []Result
	all = append(all, Framework()...)
	all = append(all, Enclave()...)
	all = append(all, Validation()...)
	all = append(all, TLB()...)
	all = append(all, Interrupts()...)
	for _, r := range all {
		if !r.Defended || r.OffPlatform {
			continue
		}
		if !r.Evidence.Any() {
			t.Errorf("defended but unobserved: %s (%s)", r.Attack, r.Evidence)
		}
	}
}

// TestAuditedAttacksNoFalsePositives: with the auditor attached to every
// attack CVM, the architectural attacks (which the machine defends
// correctly) must tally zero invariant violations; only the broken-TLB
// detection attack may fire.
func TestAuditedAttacksNoFalsePositives(t *testing.T) {
	SetAuditing(true)
	defer SetAuditing(false)
	for _, r := range append(Framework(), Validation()...) {
		if r.Evidence.AuditViolations != 0 {
			t.Errorf("auditor false positive under %q: %d violations",
				r.Attack, r.Evidence.AuditViolations)
		}
	}
	tlb := TLB()
	for _, r := range tlb[:2] {
		if r.Evidence.AuditViolations != 0 {
			t.Errorf("auditor false positive under %q: %d violations",
				r.Attack, r.Evidence.AuditViolations)
		}
	}
	if last := tlb[2]; last.Evidence.AuditViolations == 0 {
		t.Errorf("broken-TLB attack tallied no auditor violations: %s", last.Detail)
	}
}

// TestStaleTLBAttackHasTeeth reruns the RMPADJUST-revoke attack against a
// machine whose TLB deliberately skips every invalidation. The stale RMP
// verdict must then survive the revoke and the attack must report a breach;
// if it still reported "defended", the suite above would prove nothing.
func TestStaleTLBAttackHasTeeth(t *testing.T) {
	ok, detail := staleTLBRevoke(true)
	if ok {
		t.Fatalf("stale-TLB attack reported defended on a no-invalidate TLB (%s)", detail)
	}
}

func TestFleetAttacksAllDefended(t *testing.T) {
	results := Fleet()
	if len(results) != 5 {
		t.Fatalf("fleet suite has %d attacks, want 5", len(results))
	}
	assertAllDefended(t, results)
	// Every fleet defence must be auditor-visible: the refusing machine
	// records a DeniedChannel event in its flight ring.
	for _, r := range results {
		if r.Evidence.Denied == 0 {
			t.Errorf("no denial evidence for %q: %s", r.Attack, r.Evidence)
		}
	}
}

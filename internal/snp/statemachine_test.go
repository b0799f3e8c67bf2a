package snp

import (
	"math/rand"
	"testing"
)

// TestPageStateMachineInvariants drives one page through long random
// sequences of the operations the host and guest can attempt (assign,
// reclaim, validate, invalidate, adjust, access) and checks the RMP's
// architectural invariants after every step:
//
//  1. VMPL0 permissions on an assigned+validated page are always PermAll.
//  2. A page is never validated without being assigned.
//  3. Hypervisor reads succeed iff the page is unassigned.
//  4. Guest accesses never succeed without the matching permission.
//  5. Reclaim never succeeds on a validated page.
func TestPageStateMachineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	const steps = 4000

	m := NewMachine(Config{MemBytes: 2 * PageSize, VCPUs: 1})
	const phys = 0

	check := func(step int, op string) {
		e, err := m.RMPEntryAt(phys)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		if e.Validated && !e.Assigned {
			t.Fatalf("step %d (%s): validated but unassigned", step, op)
		}
		if e.Assigned && e.Validated && e.Perms[VMPL0] != PermAll {
			t.Fatalf("step %d (%s): VMPL0 perms = %s", step, op, e.Perms[VMPL0])
		}
		hvErr := m.HVReadPhys(phys, make([]byte, 1))
		if (hvErr == nil) != !e.Assigned {
			t.Fatalf("step %d (%s): hv read err=%v assigned=%v", step, op, hvErr, e.Assigned)
		}
	}

	for step := 0; step < steps; step++ {
		if m.Halted() != nil {
			// A guest permission violation halted the model CVM; for the
			// state machine test we reset the latch and continue probing.
			m.halted = nil
		}
		var op string
		switch rng.Intn(6) {
		case 0:
			op = "assign"
			_ = m.HVAssignPage(phys)
		case 1:
			op = "reclaim"
			e, _ := m.RMPEntryAt(phys)
			err := m.HVReclaimPage(phys)
			if err == nil && e.Validated {
				t.Fatalf("step %d: reclaimed a validated page", step)
			}
		case 2:
			op = "validate"
			_ = m.PValidate(VMPL0, phys, true)
		case 3:
			op = "invalidate"
			_ = m.PValidate(VMPL0, phys, false)
		case 4:
			op = "adjust"
			target := VMPL(1 + rng.Intn(3))
			perm := Perm(rng.Intn(16))
			_ = m.RMPAdjust(VMPL0, phys, target, perm)
		case 5:
			op = "access"
			vmpl := VMPL(rng.Intn(4))
			cpl := CPL0
			if rng.Intn(2) == 1 {
				cpl = CPL3
			}
			acc := Access(rng.Intn(3))
			e, _ := m.RMPEntryAt(phys)
			var err error
			switch acc {
			case AccessRead:
				err = m.GuestReadPhys(vmpl, cpl, phys, make([]byte, 1))
			case AccessWrite:
				err = m.GuestWritePhys(vmpl, cpl, phys, []byte{1})
			case AccessExec:
				err = m.GuestExecCheckPhys(vmpl, cpl, phys)
			}
			allowed := false
			switch {
			case e.VMSA:
				allowed = false
			case !e.Assigned:
				allowed = acc != AccessExec
			case !e.Validated:
				allowed = false
			default:
				allowed = e.Perms[vmpl].Has(permFor(acc, cpl))
			}
			if (err == nil) != allowed {
				t.Fatalf("step %d: access %v at %s/%s err=%v, allowed=%v (entry %+v)",
					step, acc, vmpl, cpl, err, allowed, e)
			}
		}
		check(step, op)
	}
}

// TestVMSALifecycleStateMachine drives VMSA create/update/destroy randomly
// and checks the page's accessibility tracks the VMSA flag.
func TestVMSALifecycleStateMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := NewMachine(Config{MemBytes: 2 * PageSize, VCPUs: 1})
	if err := m.HVAssignPage(0); err != nil {
		t.Fatal(err)
	}
	if err := m.PValidate(VMPL0, 0, true); err != nil {
		t.Fatal(err)
	}
	isVMSA := false
	for step := 0; step < 1000; step++ {
		m.halted = nil
		switch rng.Intn(3) {
		case 0:
			err := m.CreateVMSA(VMPL0, 0, VMSA{VCPUID: 0, VMPL: VMPL(rng.Intn(4))}, nopContext)
			if (err == nil) != !isVMSA {
				t.Fatalf("step %d: create err=%v isVMSA=%v", step, err, isVMSA)
			}
			if err == nil {
				isVMSA = true
			}
		case 1:
			err := m.DestroyVMSA(VMPL0, 0)
			if (err == nil) != isVMSA {
				t.Fatalf("step %d: destroy err=%v isVMSA=%v", step, err, isVMSA)
			}
			if err == nil {
				isVMSA = false
			}
		case 2:
			err := m.GuestReadPhys(VMPL0, CPL0, 0, make([]byte, 1))
			if (err == nil) != !isVMSA {
				t.Fatalf("step %d: read err=%v isVMSA=%v", step, err, isVMSA)
			}
		}
	}
}

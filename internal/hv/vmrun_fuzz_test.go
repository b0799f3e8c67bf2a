package hv

import (
	"errors"
	"testing"

	"veil/internal/obs"
	"veil/internal/snp"
)

// Pages of the domain-switch fuzz world, on top of the harness layout.
const (
	pgAPGHCB  = 5 // shared GHCB of VCPU 1
	pgAPVMSA  = 7 // VCPU 1's boot VMSA
	pgCandLo  = 8 // first page the fuzzer creates and destroys VMSAs on
	numCands  = 6 // pages pgCandLo .. pgCandLo+numCands-1
	fuzzTag0  = 200
	numFuzzed = 4 // tags fuzzTag0 .. fuzzTag0+numFuzzed-1
)

// switchWorld is the harness with VCPU 1 started, the candidate pages
// validated, and every VMSA's context recording that it ran.
type switchWorld struct {
	*harness
	lastRan uint64 // the page whose context ran last
	runs    int
	// live maps a page to the VCPU whose VMSA it holds; bound maps a
	// (VCPU, tag) pair to the page the host names for it.
	live  map[uint64]int
	bound map[[2]uint64]uint64
}

func (w *switchWorld) ctxFor(page uint64) snp.Context {
	return snp.ContextFunc(func(snp.Reason) error {
		w.runs++
		w.lastRan = page
		return nil
	})
}

func (w *switchWorld) ghcb(vcpu int) uint64 {
	if vcpu == 0 {
		return pgMonGHCB * snp.PageSize
	}
	return pgAPGHCB * snp.PageSize
}

// call issues one exit from vcpu through its GHCB.
func (w *switchWorld) call(t *testing.T, vcpu int, g *snp.GHCB) error {
	t.Helper()
	if err := w.m.WriteGHCBMSR(vcpu, snp.CPL0, w.ghcb(vcpu)); err != nil {
		t.Fatal(err)
	}
	return w.hv.GuestCall(vcpu, snp.VMPL0, snp.CPL0, w.ghcb(vcpu), g)
}

func newSwitchWorld(t *testing.T) *switchWorld {
	t.Helper()
	w := &switchWorld{harness: newHarness(t), live: map[uint64]int{}, bound: map[[2]uint64]uint64{}}
	w.mon = func(snp.Reason) error { w.runs++; w.lastRan = pgBootVMSA * snp.PageSize; return nil }
	w.os = func(snp.Reason) error { w.runs++; w.lastRan = pgOSVMSA * snp.PageSize; return nil }
	w.live[pgBootVMSA*snp.PageSize] = 0
	w.live[pgOSVMSA*snp.PageSize] = 0
	w.bound[[2]uint64{0, uint64(tagMon)}] = pgBootVMSA * snp.PageSize
	w.bound[[2]uint64{0, uint64(tagOS)}] = pgOSVMSA * snp.PageSize
	ap := uint64(pgAPVMSA * snp.PageSize)
	g := &snp.GHCB{ExitCode: ExitPageState, ExitInfo1: ap, ExitInfo2: (1+numCands)<<1 | 1}
	if err := w.call(t, 0, g); err != nil || g.SwScratch != 0 {
		t.Fatalf("assign: %v, %d failed", err, g.SwScratch)
	}
	for pg := uint64(pgAPVMSA); pg < pgCandLo+numCands; pg++ {
		if err := w.m.PValidate(snp.VMPL0, pg*snp.PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.m.CreateVMSA(snp.VMPL0, ap, snp.VMSA{VCPUID: 1, VMPL: snp.VMPL3}, w.ctxFor(ap)); err != nil {
		t.Fatal(err)
	}
	if err := w.call(t, 0, &snp.GHCB{ExitCode: ExitStartVCPU, ExitInfo1: ap}); err != nil {
		t.Fatal(err)
	}
	w.live[ap] = 1
	w.runs, w.lastRan = 0, 0
	return w
}

// FuzzDomainSwitch interleaves VMSA creation (with registration under a
// tag) and destruction with host-chosen switches and rebinds of any
// (VCPU, tag) to any page. After each switch a context ran if and only if
// the named page is a live VMSA of the switching VCPU, and it was that
// page's; otherwise the switch returned ErrVMRUN and emitted exactly one
// DeniedVMRUN event naming the page (or, for a tag the VCPU never had, an
// error and no event). Nothing halts and nothing panics.
func FuzzDomainSwitch(f *testing.F) {
	// Each op is three bytes: kind, a, b.
	f.Add([]byte{0, 0, 0, 3, 0, 0})                      // create on VCPU 0, switch to it
	f.Add([]byte{0, 1, 0, 1, 1, 0, 3, 0, 0})             // create, destroy, switch to the dead tag
	f.Add([]byte{2, 4 << 2, 0, 3, 0, 0})                 // rebind a tag to a non-VMSA page
	f.Add([]byte{0, 0, 1, 2, pgCandLo << 2, 0, 3, 0, 0}) // VCPU 0 switches into VCPU 1's VMSA
	f.Add([]byte{0, 2, 1, 3, 0, 1, 1, 2, 1, 0, 2, 1, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newSwitchWorld(t)
		for i := 0; i+3 <= len(data) && i < 3*64; i += 3 {
			kind, a, b := data[i]%4, data[i+1], data[i+2]
			vcpu := int(b % 2)
			tag := uint64(fuzzTag0 + a%numFuzzed)
			switch kind {
			case 0: // create a VMSA on a candidate page and register it
				page := (pgCandLo + uint64(a>>2)%numCands) * snp.PageSize
				err := w.m.CreateVMSA(snp.VMPL0, page, snp.VMSA{VCPUID: vcpu, VMPL: snp.VMPL2}, w.ctxFor(page))
				if _, was := w.live[page]; was != (err != nil) {
					t.Fatalf("create on %#x: %v, live before: %v", page, err, was)
				}
				if err != nil {
					continue
				}
				w.live[page] = vcpu
				if err := w.call(t, 0, &snp.GHCB{ExitCode: ExitRegisterVMSA, ExitInfo1: page, ExitInfo2: tag}); err != nil {
					t.Fatalf("register %#x: %v", page, err)
				}
				w.bound[[2]uint64{uint64(vcpu), tag}] = page
			case 1: // destroy a candidate page's VMSA
				page := (pgCandLo + uint64(a>>2)%numCands) * snp.PageSize
				err := w.m.DestroyVMSA(snp.VMPL0, page)
				if _, was := w.live[page]; was != (err == nil) {
					t.Fatalf("destroy %#x: %v, live before: %v", page, err, was)
				}
				delete(w.live, page)
			case 2: // the host points (vcpu, tag) at any page
				page := uint64(a>>2) % testPages * snp.PageSize
				if err := w.hv.AttemptRebind(vcpu, DomainTag(tag), page); err != nil {
					t.Fatal(err)
				}
				w.bound[[2]uint64{uint64(vcpu), tag}] = page
			case 3: // vcpu asks for a switch to tag
				w.checkSwitch(t, vcpu, tag)
			}
		}
		if f := w.m.Halted(); f != nil {
			t.Fatalf("the machine halted: %v", f)
		}
		if n, d := w.m.AuditRMPConsistency(4); n != 0 {
			t.Fatalf("RMP consistency: %d violations %v", n, d)
		}
	})
}

// checkSwitch runs one switch on vcpu to tag and holds it to the oracle.
func (w *switchWorld) checkSwitch(t *testing.T, vcpu int, tag uint64) {
	t.Helper()
	rec := obs.NewRecorder(64)
	w.m.SetRecorder(rec)
	runs := w.runs
	err := w.call(t, vcpu, &snp.GHCB{ExitCode: ExitDomainSwitch, ExitInfo1: tag})
	w.m.SetRecorder(nil)
	var denied []uint64
	for _, e := range rec.Events() {
		if e.Class == obs.ClassDenied {
			if e.Arg1 != uint64(snp.DeniedVMRUN) {
				t.Fatalf("switch refused with %v", snp.DeniedReason(e.Arg1))
			}
			denied = append(denied, e.Arg2)
		}
	}
	page, isBound := w.bound[[2]uint64{uint64(vcpu), tag}]
	owner, isLive := w.live[page]
	switch {
	case !isBound:
		if err == nil || errors.Is(err, snp.ErrVMRUN) || len(denied) != 0 || w.runs != runs {
			t.Fatalf("VCPU %d, unbound tag %d: %v, refusals %v, %d ran", vcpu, tag, err, denied, w.runs-runs)
		}
	case isLive && owner == vcpu:
		if err != nil || len(denied) != 0 || w.runs != runs+1 || w.lastRan != page {
			t.Fatalf("VCPU %d, tag %d → its VMSA %#x: %v, refusals %v, %d ran, last %#x", vcpu, tag, page, err, denied, w.runs-runs, w.lastRan)
		}
	default:
		if !errors.Is(err, snp.ErrVMRUN) || len(denied) != 1 || denied[0] != page || w.runs != runs {
			t.Fatalf("VCPU %d, tag %d → %#x (live %v, owner %d): %v, refusals %v, %d ran", vcpu, tag, page, isLive, owner, err, denied, w.runs-runs)
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"veil/internal/attest"
	"veil/internal/hv"
	"veil/internal/obs"
	"veil/internal/snp"
)

// refSweepAndProtect is the reference for sweepAndProtect: the boot sweep
// as it was before RMP runs, one PVALIDATE, cold-touch charge and
// RMPADJUST at a time.
func (mon *Monitor) refSweepAndProtect() error {
	m := mon.m
	total := m.NumPages()
	ghcbLo := mon.lay.GHCBBase >> snp.PageShift
	ghcbHi := ghcbLo + mon.lay.GHCBPages

	var runStart uint64
	var inRun bool
	flush := func(endPage uint64) error {
		if !inRun {
			return nil
		}
		inRun = false
		g := &snp.GHCB{
			ExitCode:  hv.ExitPageState,
			ExitInfo1: runStart * snp.PageSize,
			ExitInfo2: (endPage-runStart)<<1 | 1,
		}
		if err := mon.hypercall(0, g); err != nil {
			return err
		}
		if g.SwScratch != 0 {
			return fmt.Errorf("core: host refused %d pages in sweep", g.SwScratch)
		}
		return nil
	}
	for pg := uint64(0); pg < total; pg++ {
		if pg >= ghcbLo && pg < ghcbHi {
			if err := flush(pg); err != nil {
				return err
			}
			continue
		}
		e, err := m.RMPEntryAt(pg * snp.PageSize)
		if err != nil {
			return err
		}
		if !e.Assigned {
			if !inRun {
				runStart, inRun = pg, true
			}
		} else if err := flush(pg); err != nil {
			return err
		}
	}
	if err := flush(total); err != nil {
		return err
	}

	kernelPerms := [3]struct {
		vmpl snp.VMPL
		perm snp.Perm
	}{
		{snp.VMPL1, snp.PermAll},
		{snp.VMPL2, snp.PermRW | snp.PermUserExec},
		{snp.VMPL3, snp.PermAll},
	}
	for pg := uint64(0); pg < total; pg++ {
		if pg >= ghcbLo && pg < ghcbHi {
			continue
		}
		phys := pg * snp.PageSize
		e, err := m.RMPEntryAt(phys)
		if err != nil {
			return err
		}
		if e.VMSA {
			continue
		}
		if !e.Validated {
			if err := m.PValidate(snp.VMPL0, phys, true); err != nil {
				return err
			}
			m.Clock().Charge(snp.CostCompute, snp.CyclesColdPageTouch)
		}
		if phys >= mon.lay.KernelLo {
			for _, kp := range kernelPerms {
				// The IDCB and ring pages are kernel data from the start.
				if kp.vmpl == snp.VMPL3 && phys < mon.lay.KernelMemLo() {
					kp.perm = snp.PermRW | snp.PermUserExec
				}
				if err := m.RMPAdjust(snp.VMPL0, phys, kp.vmpl, kp.perm); err != nil {
					return err
				}
			}
		} else {
			for v := snp.VMPL1; v < snp.NumVMPLs; v++ {
				if err := m.RMPAdjust(snp.VMPL0, phys, v, snp.PermNone); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sweepWorld is a launched machine whose boot context ran one sweep.
type sweepWorld struct {
	m      *snp.Machine
	flight *obs.Flight
	rec    *obs.Recorder
	hooked []obs.Event
	err    error
}

// launchSweep launches a Veil-layout machine whose boot context runs the
// sweep (ref selects the reference) and nothing else. A preset page
// (extra, when non-zero) is launch-loaded too, so the sweep meets
// validated pages in the kernel region as well as the monitor image.
func launchSweep(t *testing.T, sinks string, ref bool, extra uint64) *sweepWorld {
	t.Helper()
	const mem, vcpus = 16 << 20, 2
	lay, err := DefaultLayout(mem, vcpus, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	psp, err := attest.NewPSP(rng)
	if err != nil {
		t.Fatal(err)
	}
	w := &sweepWorld{m: snp.NewMachine(snp.Config{MemBytes: mem, VCPUs: vcpus})}
	switch sinks {
	case "flight":
		w.flight = obs.NewFlight(0)
	case "recorder":
		w.flight, w.rec = obs.NewFlight(0), obs.NewRecorder(1<<12)
	case "whole-boot recorder":
		w.rec = obs.NewRecorder(1 << 18)
	case "flight+hook":
		w.flight = obs.NewFlight(0)
		w.m.SetAuditHook(func(e obs.Event) { w.hooked = append(w.hooked, e) })
	}
	if w.flight != nil {
		w.m.SetFlight(w.flight)
	}
	if w.rec != nil {
		w.m.SetRecorder(w.rec)
	}
	hyp := hv.New(w.m, psp)
	mon, err := NewMonitor(w.m, hyp, Config{Layout: lay, Rand: rng,
		UNTContext: func(int) snp.Context { return snp.ContextFunc(func(snp.Reason) error { return nil }) }})
	if err != nil {
		t.Fatal(err)
	}
	ctx := snp.ContextFunc(func(snp.Reason) error {
		if err := mon.m.WriteGHCBMSR(0, snp.CPL0, mon.lay.MonGHCB(0)); err != nil {
			return err
		}
		if ref {
			return mon.refSweepAndProtect()
		}
		return mon.sweepAndProtect()
	})
	regions := []attest.Region{{Phys: lay.MonImage, Data: []byte("image")}}
	if extra != 0 {
		regions = append(regions, attest.Region{Phys: extra, Data: []byte("preset")})
	}
	w.err = hyp.Launch(regions, lay.BootVMSA, snp.VMSA{}, DomMON, ctx)
	return w
}

// TestSweepMatchesPerPageReference holds the run-based boot sweep to the
// per-page sweep under every sink set: same RMP, clock, counters, halt and
// event record.
func TestSweepMatchesPerPageReference(t *testing.T) {
	for _, sinks := range []string{"none", "flight", "recorder", "whole-boot recorder", "flight+hook"} {
		for _, extra := range []uint64{0, 0x7f000, 0x200000} {
			t.Run(fmt.Sprintf("%s/preset-%#x", sinks, extra), func(t *testing.T) {
				got := launchSweep(t, sinks, false, extra)
				ref := launchSweep(t, sinks, true, extra)
				defer got.m.Release()
				defer ref.m.Release()
				if got.err != nil || ref.err != nil {
					t.Fatalf("sweep err %v, reference %v", got.err, ref.err)
				}
				g, r := got.m, ref.m
				if g.Trace().PValidates == 0 || g.Trace().RMPAdjusts == 0 {
					t.Fatalf("the sweep ran no instructions: %+v", *g.Trace())
				}
				for pg := uint64(0); pg < g.NumPages(); pg++ {
					ge, _ := g.RMPEntryAt(pg * snp.PageSize)
					re, _ := r.RMPEntryAt(pg * snp.PageSize)
					if ge != re {
						t.Fatalf("page %d: RMP %+v, reference %+v", pg, ge, re)
					}
				}
				if *g.Clock() != *r.Clock() || *g.Trace() != *r.Trace() || g.MemStats() != r.MemStats() ||
					g.RMPMutations() != r.RMPMutations() || !reflect.DeepEqual(g.Halted(), r.Halted()) {
					t.Fatalf("clock/trace/stats: %+v %+v, reference %+v %+v", *g.Clock(), *g.Trace(), *r.Clock(), *r.Trace())
				}
				if !slices.Equal(got.flight.Events(), ref.flight.Events()) ||
					got.flight.DroppedByClass() != ref.flight.DroppedByClass() ||
					!slices.Equal(got.rec.Events(), ref.rec.Events()) || got.rec.Total() != ref.rec.Total() ||
					!reflect.DeepEqual(got.rec.Metrics(), ref.rec.Metrics()) || !slices.Equal(got.hooked, ref.hooked) {
					t.Fatal("event record differs from the per-page sweep's")
				}
				if sinks != "none" && g.FlightDropped() == 0 && sinks != "whole-boot recorder" {
					t.Fatal("the sweep never overflowed the ring: the test lost its teeth")
				}
			})
		}
	}
}

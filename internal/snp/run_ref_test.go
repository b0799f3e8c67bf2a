package snp

// Differential testing of RMP runs. The references below are RMPADJUST and
// PVALIDATE as they were before runs existed — every instruction checked,
// applied and emitted its event (or recorded its fault) on its own — and
// the per-page loops the boot sweep, VeilS-Log's store grant and KCI
// activation ran over them. The harness applies one run with RunRMP on a
// machine and with refRunRMP on an identically built twin, under every
// combination of event sinks, and compares everything either side can
// observe.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"veil/internal/obs"
)

// refRMPAdjust is the reference for one RMPADJUST.
func (m *Machine) refRMPAdjust(callerVMPL VMPL, phys uint64, targetVMPL VMPL, perms Perm) error {
	if err := m.checkRunning(); err != nil {
		return err
	}
	pi, err := m.pageIndex(phys)
	if err != nil {
		return err
	}
	if !targetVMPL.Valid() || !callerVMPL.MorePrivilegedThan(targetVMPL) {
		f := &Fault{Kind: FaultGP, VMPL: callerVMPL, Phys: phys,
			Why: fmt.Sprintf("RMPADJUST target %s not below caller %s", targetVMPL, callerVMPL)}
		m.ObserveFault(f)
		return f
	}
	e := &m.rmp[pi]
	if e.VMSA {
		f := &Fault{Kind: FaultNPF, VMPL: callerVMPL, Phys: phys, Access: AccessWrite, Why: "RMPADJUST on in-use VMSA page"}
		m.Halt(f)
		return f
	}
	if !e.Assigned || !e.Validated {
		f := &Fault{Kind: FaultNPF, VMPL: callerVMPL, Phys: phys, Access: AccessWrite, Why: "RMPADJUST on unassigned/unvalidated page"}
		m.Halt(f)
		return f
	}
	if !e.Perms[callerVMPL].Has(PermRW) {
		f := &Fault{Kind: FaultNPF, VMPL: callerVMPL, Phys: phys, Access: AccessWrite,
			Why: fmt.Sprintf("RMPADJUST caller lacks rw on page (have %s)", e.Perms[callerVMPL])}
		m.Halt(f)
		return f
	}
	if !e.Perms[callerVMPL].Has(perms) {
		f := &Fault{Kind: FaultGP, VMPL: callerVMPL, Phys: phys,
			Why: fmt.Sprintf("RMPADJUST grants %s beyond caller's %s", perms, e.Perms[callerVMPL])}
		m.ObserveFault(f)
		return f
	}
	e.Perms[targetVMPL] = perms
	m.rmpFlushTLB()
	m.clock.Charge(CostRMPADJUST, CyclesRMPADJUST)
	m.observeRMPAdjust(callerVMPL, targetVMPL, phys, perms)
	return nil
}

// refPValidate is the reference for one PVALIDATE.
func (m *Machine) refPValidate(callerVMPL VMPL, phys uint64, validate bool) error {
	if err := m.checkRunning(); err != nil {
		return err
	}
	pi, err := m.pageIndex(phys)
	if err != nil {
		return err
	}
	if callerVMPL != VMPL0 {
		f := &Fault{Kind: FaultGP, VMPL: callerVMPL, Phys: phys, Why: "PVALIDATE requires VMPL0"}
		m.ObserveFault(f)
		return f
	}
	e := &m.rmp[pi]
	if !e.Assigned {
		f := &Fault{Kind: FaultNPF, VMPL: callerVMPL, Phys: phys, Why: "PVALIDATE on unassigned page"}
		m.Halt(f)
		return f
	}
	if e.Validated == validate {
		return fmt.Errorf("snp: PVALIDATE no-op (already validated=%v) at %#x", validate, PageBase(phys))
	}
	e.Validated = validate
	if validate {
		m.validatedCount++
		e.Perms = [NumVMPLs]Perm{VMPL0: PermAll}
		m.scrub(pi)
		if m.isPTPage(pi) {
			m.invalidatePTPage(pi)
		}
	} else {
		m.validatedCount--
		e.Perms = [NumVMPLs]Perm{}
	}
	m.rmpFlushTLB()
	m.clock.Charge(CostPVALIDATE, CyclesPVALIDATE)
	m.trace.PValidates++
	m.emit(obs.ClassPValidate, obs.Instant, 0, int16(callerVMPL), PageBase(phys), pvalidateArg(validate))
	return nil
}

// refRunRMP is the reference for RunRMP: the per-page loop over the
// per-instruction references.
func (m *Machine) refRunRMP(r *RMPRun) error {
	if r.Validate == NoPValidate && len(r.Grants) == 0 {
		return nil // skip walking a range that may span the address space
	}
	step := func(phys uint64) error {
		if r.Validate != NoPValidate {
			if err := m.refPValidate(r.Caller, phys, r.Validate == PVAccept); err != nil {
				return err
			}
			m.clock.Charge(CostCompute, r.Touch)
		}
		for _, g := range r.Grants {
			if err := m.refRMPAdjust(r.Caller, phys, g.Target, g.Perms); err != nil {
				return err
			}
		}
		return nil
	}
	if r.Pages != nil {
		for _, phys := range r.Pages {
			if err := step(phys); err != nil {
				return err
			}
		}
		return nil
	}
	for phys := r.Lo; phys < r.Hi; phys += PageSize {
		if err := step(phys); err != nil {
			return err
		}
	}
	return nil
}

// runSinks names the sink sets the differential attaches.
var runSinks = [...]string{"none", "flight", "recorder-8", "recorder-1<<18", "flight+hook", "hook"}

// hookedEvent is one event the audit hook saw, with the RMP mutation
// count at that moment: the hook must see each event against the machine
// state it describes.
type hookedEvent struct {
	e    obs.Event
	muts uint64
}

// runWorld is one side of the differential.
type runWorld struct {
	m      *Machine
	flight *obs.Flight
	rec    *obs.Recorder
	hooked []hookedEvent
}

const runDiffPages = 16

// newRunWorld builds a machine whose page states come from setup (one
// byte per page), attaches the sink set and records a few events first,
// so the run meets a ring that already holds something.
func newRunWorld(setup []byte, sinks int, flightCap int, broken bool) *runWorld {
	w := &runWorld{m: NewMachine(Config{MemBytes: runDiffPages * PageSize, VCPUs: 2})}
	m := w.m
	for pi := uint64(0); pi < runDiffPages; pi++ {
		b := setup[pi]
		e := &m.rmp[pi]
		switch b & 3 {
		case 1:
			*e = RMPEntry{Assigned: true}
		case 2, 3:
			*e = RMPEntry{Assigned: true, Validated: true, VMSA: b&3 == 3}
			e.Perms[VMPL0] = PermAll
			for v := VMPL1; v < NumVMPLs; v++ {
				e.Perms[v] = Perm(b>>(2+v)) & PermAll
			}
			m.validatedCount++
		}
		if b&4 != 0 {
			m.markWritten(pi)
			m.rawPage(pi)[pi] = b | 1
		}
		if b&8 != 0 {
			m.notePTPage(pi)
		}
	}
	m.SetBrokenTLBNoInvalidate(broken)
	switch runSinks[sinks] {
	case "flight":
		w.flight = obs.NewFlight(flightCap)
	case "recorder-8":
		w.flight, w.rec = obs.NewFlight(flightCap), obs.NewRecorder(8)
	case "recorder-1<<18":
		w.rec = obs.NewRecorder(1 << 18)
	case "flight+hook":
		w.flight = obs.NewFlight(flightCap)
	}
	if w.flight != nil {
		m.SetFlight(w.flight)
	}
	if w.rec != nil {
		m.SetRecorder(w.rec)
	}
	if sinks >= 4 {
		m.SetAuditHook(func(e obs.Event) { w.hooked = append(w.hooked, hookedEvent{e, m.rmpMutations}) })
	}
	m.SetObsVCPU(1)
	for i := range setup[runDiffPages] & 7 {
		start := m.clock.total
		m.clock.Charge(CostCompute, 100)
		m.ObserveDomainSwitch(VMPL0, VMPL(i&3), start) // a span, so eviction folds a histogram
		m.ObserveVMGEXIT()
	}
	if setup[runDiffPages]&8 != 0 {
		m.BeginSpan() // the run's events nest under an open span
	}
	return w
}

// decodeRun builds one run from 8 bytes: caller, PVALIDATE, page form,
// grants and touch.
func decodeRun(b []byte) *RMPRun {
	r := &RMPRun{Caller: VMPL(b[0] & 3), Validate: PVOp(b[0] >> 2 & 3 % 3)}
	if b[0]&0x10 != 0 {
		r.Touch = CyclesColdPageTouch
	}
	// Pages run a little past the machine, and may not be page aligned.
	off := uint64(b[1]>>5) * 0x300
	lo := uint64(b[1]&31)*PageSize + off
	if b[0]&0x20 != 0 {
		for _, c := range b[2:4] {
			for k := 0; k < int(c>>6)+1; k++ {
				r.Pages = append(r.Pages, uint64(c&31)*PageSize+uint64(k)*off)
			}
		}
		if r.Pages == nil {
			r.Pages = []uint64{}
		}
	} else {
		r.Lo, r.Hi = lo, lo+uint64(b[2]&31)*PageSize-uint64(b[3]&3)*0x500
	}
	for _, g := range b[4 : 4+int(b[0]>>6)] {
		r.Grants = append(r.Grants, Grant{Target: VMPL(g & 7 % 5), Perms: Perm(g>>3) & PermAll})
	}
	return r
}

// compareRun checks every observable of the two sides.
func compareRun(tb testing.TB, what string, got, ref *runWorld, gotErr, refErr error) {
	tb.Helper()
	g, r := got.m, ref.m
	if (gotErr == nil) != (refErr == nil) || (gotErr != nil && gotErr.Error() != refErr.Error()) {
		tb.Fatalf("%s: err %v, reference %v", what, gotErr, refErr)
	}
	if !slices.Equal(g.rmp, r.rmp) {
		tb.Fatalf("%s: RMP differs", what)
	}
	if g.validatedCount != r.validatedCount || g.rmpMutations != r.rmpMutations || g.tlbRMPEpoch != r.tlbRMPEpoch {
		tb.Fatalf("%s: validated/mutations/epoch %d/%d/%d, reference %d/%d/%d", what,
			g.validatedCount, g.rmpMutations, g.tlbRMPEpoch, r.validatedCount, r.rmpMutations, r.tlbRMPEpoch)
	}
	if g.memStats != r.memStats || g.trace != r.trace || g.clock != r.clock {
		tb.Fatalf("%s: stats/trace/clock %+v %+v %+v, reference %+v %+v %+v", what,
			g.memStats, g.trace, g.clock, r.memStats, r.trace, r.clock)
	}
	if !reflect.DeepEqual(g.halted, r.halted) || !reflect.DeepEqual(g.pm, r.pm) {
		tb.Fatalf("%s: halt %v / post-mortem differ from reference %v", what, g.halted, r.halted)
	}
	if !slices.Equal(g.written, r.written) || !slices.Equal(g.ptGen, r.ptGen) || !bytes.Equal(g.mem, r.mem) {
		tb.Fatalf("%s: memory, written bitmap or table generations differ", what)
	}
	if !slices.Equal(got.flight.Events(), ref.flight.Events()) || got.flight.Dropped() != ref.flight.Dropped() ||
		got.flight.DroppedByClass() != ref.flight.DroppedByClass() {
		tb.Fatalf("%s: flight ring differs:\n%v dropped %d %v\nreference\n%v dropped %d %v", what,
			got.flight.Events(), got.flight.Dropped(), got.flight.DroppedByClass(),
			ref.flight.Events(), ref.flight.Dropped(), ref.flight.DroppedByClass())
	}
	if !slices.Equal(got.rec.Tail(-1), ref.rec.Tail(-1)) || got.rec.Total() != ref.rec.Total() ||
		!reflect.DeepEqual(got.rec.Metrics(), ref.rec.Metrics()) {
		tb.Fatalf("%s: recorder differs:\n%v total %d\nreference\n%v total %d", what,
			got.rec.Tail(-1), got.rec.Total(), ref.rec.Tail(-1), ref.rec.Total())
	}
	if !slices.Equal(g.FlightTail(), r.FlightTail()) || g.FlightDroppedByClass() != r.FlightDroppedByClass() {
		tb.Fatalf("%s: post-mortem tail differs", what)
	}
	if !slices.Equal(got.hooked, ref.hooked) {
		tb.Fatalf("%s: audit hook saw\n%v\nreference\n%v", what, got.hooked, ref.hooked)
	}
}

// runRMPDiff decodes a header (page states, sinks, flight capacity,
// broken-TLB mode, ring preload) and then one run per 8 bytes.
func runRMPDiff(tb testing.TB, data []byte) {
	tb.Helper()
	const header = runDiffPages + 2
	if len(data) < header {
		return
	}
	sinks := int(data[runDiffPages+1]) % len(runSinks)
	flightCap := 1 + int(data[runDiffPages+1]>>3&15)
	if data[runDiffPages+1]&0x80 != 0 {
		flightCap = obs.DefaultFlightCapacity
	}
	broken := data[runDiffPages]&0x10 != 0
	got := newRunWorld(data, sinks, flightCap, broken)
	ref := newRunWorld(data, sinks, flightCap, broken)
	defer got.m.Release()
	defer ref.m.Release()
	for i, b := 0, data[header:]; len(b) >= 8; i, b = i+1, b[8:] {
		r := decodeRun(b)
		what := fmt.Sprintf("sinks %s, run %d %+v", runSinks[sinks], i, *r)
		gotErr := got.m.RunRMP(r)
		refErr := ref.m.refRunRMP(r)
		compareRun(tb, what, got, ref, gotErr, refErr)
		if b[1]&0x80 != 0 || b[7]&1 != 0 {
			for _, w := range []*runWorld{got, ref} {
				w.m.halted, w.m.pm = nil, nil
			}
		}
	}
}

// TestRMPRunDifferentialSeeded drives seeded run streams through the
// differential under every sink set: the everyday version of FuzzRMPRun.
func TestRMPRunDifferentialSeeded(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		data := make([]byte, runDiffPages+2+8*24)
		rng := rand.New(rand.NewSource(seed))
		rng.Read(data)
		// Mostly pages runs get far on: validated and grantable ones for
		// grant runs, or (every other seed) assigned ones the runs accept
		// from VMPL0 first, as the boot sweep does.
		sweep := seed%2 == 0
		for pi := range runDiffPages {
			switch {
			case rng.Intn(6) == 0:
			case sweep:
				data[pi] = data[pi]&^3 | 1
			default:
				data[pi] = data[pi]&^3 | 2 | 0xe0
			}
		}
		for b := data[runDiffPages+2:]; sweep && len(b) >= 8; b = b[8:] {
			b[0] = b[0]&^0x0f | byte(PVAccept)<<2
		}
		data[runDiffPages+1] = byte(seed) % byte(len(runSinks)) // every sink set
		t.Run(fmt.Sprintf("seed-%d-%s", seed, runSinks[data[runDiffPages+1]]), func(t *testing.T) {
			runRMPDiff(t, data)
		})
	}
}

// FuzzRMPRun feeds arbitrary page states, sink sets and run streams to
// the run differential: go test -fuzz FuzzRMPRun ./internal/snp/
func FuzzRMPRun(f *testing.F) {
	for sinks := range len(runSinks) {
		seed := make([]byte, runDiffPages+2+8*4)
		rand.New(rand.NewSource(int64(sinks))).Read(seed)
		seed[runDiffPages+1] = byte(sinks)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > runDiffPages+2+8*64 {
			t.Skip("cap stream length")
		}
		runRMPDiff(t, data)
	})
}

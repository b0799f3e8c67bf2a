package snp

import "veil/internal/obs"

// Grant is one RMPADJUST of a run: Target's permission vector on each
// page becomes Perms.
type Grant struct {
	Target VMPL
	Perms  Perm
}

// PVOp selects the PVALIDATE each page of a run takes, if any.
type PVOp uint8

const (
	// NoPValidate leaves every page's validated state alone.
	NoPValidate PVOp = iota
	// PVAccept validates each page (PVALIDATE with validate=1).
	PVAccept
	// PVRescind rescinds each page's validation (validate=0).
	PVRescind
)

// RMPRun is a batch of RMP instructions one caller applies page by page:
// on each page first the PVALIDATE Validate names, then Touch compute
// cycles, then every Grant's RMPADJUST in order. Each page thus takes the
// same instruction sequence, which is what lets RunRMP record the run's
// events without building the ones no sink will read.
type RMPRun struct {
	// Caller is the VMPL issuing every instruction of the run.
	Caller VMPL
	// Pages lists the run's pages by physical address, in order. When it
	// is nil the run covers Lo, Lo+PageSize, … below Hi.
	Pages  []uint64
	Lo, Hi uint64
	// Validate is the PVALIDATE each page takes first.
	Validate PVOp
	// Touch is the compute cycles charged after each page's PVALIDATE:
	// the boot sweep's cold first touch of freshly accepted memory.
	Touch uint64
	// Grants are the RMPADJUSTs each page takes after its PVALIDATE.
	Grants []Grant
}

// pages returns how many pages the run covers.
func (r *RMPRun) pages() uint64 {
	if r.Pages != nil {
		return uint64(len(r.Pages))
	}
	if r.Hi <= r.Lo {
		return 0
	}
	return (r.Hi-r.Lo-1)/PageSize + 1
}

// page returns the physical address of the run's i-th page.
func (r *RMPRun) page(i uint64) uint64 {
	if r.Pages != nil {
		return r.Pages[i]
	}
	return r.Lo + i*PageSize
}

// perPage returns how many instructions, and so events, each page takes.
func (r *RMPRun) perPage() uint64 {
	n := uint64(len(r.Grants))
	if r.Validate != NoPValidate {
		n++
	}
	return n
}

// RunRMP applies the run page by page in order. Each instruction makes
// the checks, RMP write, TLB-epoch bump, clock charge and Trace count of
// the architectural instruction; RMPAdjust and PValidate are runs of one
// page. The first refused instruction ends the run, after every one
// before it took effect, and its refusal is returned: a #NPF halts the
// CVM and a #GP is recorded as a fault event, as one by one.
//
// With an audit hook attached every event is built in order, so the hook
// sees each one against the machine state it describes. Otherwise the run
// records its events in the attached ring when it ends, writing only the
// ones the ring still holds (see recordRun): ring contents, timestamps,
// drop counts and metrics are those of per-instruction emission.
func (m *Machine) RunRMP(r *RMPRun) error {
	if r.perPage() == 0 {
		return nil // no instructions: not even a halted machine refuses
	}
	eager := m.auditHook != nil
	start := m.clock.total
	validate := r.Validate == PVAccept
	var done uint64 // instructions that took effect
	for i, n := uint64(0), r.pages(); i < n; i++ {
		phys := r.page(i)
		// A halted machine refuses before an address outside memory.
		if err := m.checkRunning(); err != nil {
			return m.endRun(r, eager, start, done, err)
		}
		pi, err := m.pageIndex(phys)
		if err != nil {
			return m.endRun(r, eager, start, done, err)
		}
		if r.Validate != NoPValidate {
			if err := m.pvalidate(r.Caller, phys, pi, validate); err != nil {
				return m.endRun(r, eager, start, done, err)
			}
			done++
			if eager {
				m.emit(obs.ClassPValidate, obs.Instant, 0, int16(r.Caller), PageBase(phys), pvalidateArg(validate))
			}
			m.clock.Charge(CostCompute, r.Touch)
		}
		for _, g := range r.Grants {
			if err := m.rmpAdjust(r.Caller, phys, pi, g); err != nil {
				return m.endRun(r, eager, start, done, err)
			}
			done++
			if eager {
				m.emit(obs.ClassRMPAdjust, obs.Instant, 0, int16(r.Caller), PageBase(phys), rmpAdjustArg(g.Target, g.Perms))
			}
		}
	}
	return m.endRun(r, eager, start, done, nil)
}

// endRun closes a run that began at cycle start after done instructions:
// it records their events unless they went out one by one, then records
// the refusal err, if any, the way the refused instruction alone would.
func (m *Machine) endRun(r *RMPRun, eager bool, start, done uint64, err error) error {
	if !eager {
		m.recordRun(r, start, done)
	}
	f, ok := err.(*Fault)
	if !ok {
		return err
	}
	if f.Kind == FaultNPF {
		m.Halt(f)
	} else {
		m.ObserveFault(f)
	}
	return f
}

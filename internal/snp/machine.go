package snp

import (
	"fmt"

	"veil/internal/obs"
)

// PageSize is the architectural page granule tracked by the RMP.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Config describes the guest-visible machine.
type Config struct {
	// MemBytes is the guest physical memory size. It is rounded up to a
	// whole number of pages. The paper's testbed CVM has 2 GB.
	MemBytes uint64
	// VCPUs is the number of hardware-accelerated VCPUs (the paper's CVM
	// has 4).
	VCPUs int
}

// DefaultConfig mirrors the paper's evaluation CVM (§9): 2 GB of memory and
// 4 VCPUs. Tests use smaller machines for speed.
func DefaultConfig() Config {
	return Config{MemBytes: 2 << 30, VCPUs: 4}
}

// Machine is the simulated SEV-SNP guest context: physical memory, the RMP,
// VMSAs, GHCB MSRs and the virtual cycle clock. A single Machine underlies
// one CVM plus the hypervisor's view of it.
//
// Machine is not safe for concurrent use: the simulation is synchronous and
// deterministic by design.
type Machine struct {
	cfg Config
	mem []byte
	rmp []RMPEntry
	// vmsas holds each VCPU's live save areas, a handful per VCPU. A page's
	// RMP VMSA bit is set exactly when one of them is there.
	vmsas [][]vmsaSlot

	// written holds one bit per page under one invariant: a page whose
	// bit is clear is all zero. Every architectural write funnel sets the
	// bit before handing out the page's bytes; the PVALIDATE scrub zeroes
	// a written page and clears it. Accepting or recycling an unwritten
	// page therefore touches none of its bytes.
	written []uint64

	// ghcbMSR holds the per-VCPU GHCB physical address, indexed by VCPU
	// id, written by the guest via a (privileged) MSR write and read by
	// the hypervisor. noGHCB marks a VCPU whose MSR was never written.
	ghcbMSR []uint64

	clock  Clock
	trace  Trace
	halted *Fault

	// Software TLB (see tlb.go): a direct-mapped cache of completed
	// page-table walks, invalidated by an RMP-verdict epoch and
	// per-table-page generations. ptPages is the bitset of
	// pages the walker has read PTEs from; ptWrites counts the generation
	// bumps across all of them. tlbNoInvalidate is the
	// deliberately broken test-only mode proving the stale-TLB attack
	// test has teeth.
	tlb             []tlbEntry
	tlbRMPEpoch     uint64
	tlbNoInvalidate bool
	ptPages         []uint64
	ptGen           []uint32
	ptWrites        uint64
	memStats        MemStats

	// rec, when non-nil, receives a typed event for every architectural
	// occurrence the trace counters count (see observe.go). obsVCPU is
	// the hardware VCPU current events are attributed to, maintained by
	// the hypervisor at its entry points.
	rec     *obs.Recorder
	obsVCPU int32
	// machineID is this machine's fleet identity (0 for single-machine
	// runs). It qualifies cross-CVM trace refs and tags the post-mortem
	// dump so multi-CVM dumps stay attributable.
	machineID int

	// spans allocates causal span IDs and tracks the open-span stack; it
	// only advances while a sink (recorder, flight ring or audit hook) is
	// attached, so the no-observer fast path stays allocation-free.
	spans obs.SpanTracker
	// flight, when non-nil, is the always-on bounded ring feeding the
	// post-mortem dump; it records the same events as rec but survives
	// with tracing off.
	flight *obs.Flight
	// auditHook, when non-nil, is called after every recorded event (with
	// inAudit guarding re-entry) so an online invariant auditor can pace
	// itself by event count and domain switches.
	auditHook func(obs.Event)
	inAudit   bool

	// rmpMutations counts every architectural RMP/page-state mutation,
	// unconditionally — unlike MemStats.TLBRMPFlushes, which a broken TLB
	// mode may suppress. The invariant auditor compares the two.
	rmpMutations uint64
	// validatedCount incrementally tracks pages with Validated set; the
	// auditor's sweep checks it against a full RMP scan.
	validatedCount uint64

	// rmpBaseline is the RMP snapshot the post-mortem diffs against,
	// captured by SnapshotRMPBaseline after launch.
	rmpBaseline []RMPEntry
	// pm is the post-mortem dump, built once on the first halt or
	// explicit trigger.
	pm *PostMortem
}

// NewMachine creates a machine with all pages hypervisor-owned (shared),
// exactly as at CVM launch before the boot image is measured in. The two
// large backing arrays are drawn from the boot pool when a released
// machine of the same size is available (see pool.go); a recycled backing
// is cleared first, so the machine state is identical either way.
func NewMachine(cfg Config) *Machine {
	if cfg.MemBytes == 0 {
		cfg = DefaultConfig()
	}
	if cfg.VCPUs <= 0 {
		cfg.VCPUs = 1
	}
	pages := (cfg.MemBytes + PageSize - 1) / PageSize
	cfg.MemBytes = pages * PageSize
	m := &Machine{
		cfg:     cfg,
		vmsas:   make([][]vmsaSlot, cfg.VCPUs),
		ghcbMSR: make([]uint64, cfg.VCPUs),
	}
	for i := range m.ghcbMSR {
		m.ghcbMSR[i] = noGHCB
	}
	if b := acquireBacking(pages); b != nil {
		m.mem, m.rmp, m.written = b.mem, b.rmp, b.written
	} else {
		m.mem = make([]byte, cfg.MemBytes)
		m.rmp = make([]RMPEntry, pages)
		m.written = make([]uint64, (pages+63)/64)
	}
	return m
}

// NumPages returns the number of guest physical pages.
func (m *Machine) NumPages() uint64 { return uint64(len(m.rmp)) }

// Clock exposes the virtual cycle counter.
func (m *Machine) Clock() *Clock { return &m.clock }

// Trace exposes the architectural event trace counters.
func (m *Machine) Trace() *Trace { return &m.trace }

// Halt transitions the CVM into the halted state, recording the fault. On
// real SNP hardware the class of #NPF that Veil's protections produce leads
// to a system halt with continuous faults (§5.1); the model captures that as
// a terminal state. Halt returns the fault for convenient propagation.
func (m *Machine) Halt(f *Fault) error {
	if m.halted == nil {
		m.halted = f
		m.ObserveFault(f)
		m.buildPostMortem("halt: "+f.Kind.String(), f)
	}
	return m.halted
}

// Halted returns the fault that halted the CVM, or nil if it is running.
func (m *Machine) Halted() *Fault { return m.halted }

// checkRunning returns ErrHalted if the machine has already halted.
func (m *Machine) checkRunning() error {
	if m.halted != nil {
		return ErrHalted
	}
	return nil
}

// pageIndex validates a physical address and returns its page number. Its
// refusal formats only when read, so pageIndex inlines into its callers.
func (m *Machine) pageIndex(phys uint64) (uint64, error) {
	if phys >= m.cfg.MemBytes {
		return 0, &outsideMemory{phys, m.cfg.MemBytes}
	}
	return phys >> PageShift, nil
}

// outsideMemory is pageIndex's refusal: phys is not below mem, the size
// of guest memory in bytes.
type outsideMemory struct{ phys, mem uint64 }

func (e *outsideMemory) Error() string {
	return fmt.Sprintf("snp: physical address %#x outside guest memory (%d bytes)", e.phys, e.mem)
}

// PageBase returns the base address of the page containing phys.
func PageBase(phys uint64) uint64 { return phys &^ (PageSize - 1) }

// PageOffset returns the offset of phys within its page.
func PageOffset(phys uint64) uint64 { return phys & (PageSize - 1) }

// physRange checks that [phys, phys+n) lies within a single page and inside
// guest memory, returning the page index.
func (m *Machine) physRange(phys uint64, n int) (uint64, error) {
	pi, err := m.pageIndex(phys)
	if err != nil {
		return 0, err
	}
	if n < 0 || PageOffset(phys)+uint64(n) > PageSize {
		return 0, fmt.Errorf("snp: physical access %#x+%d crosses a page boundary", phys, n)
	}
	return pi, nil
}

// guestAccessPhys performs the RMP check for a guest access at the given
// VMPL/CPL and returns the backing slice on success. A permission violation
// raises #NPF and halts the machine.
//
// Fast-path rule: an access is allowed by one straight-line test (machine
// running, phys inside guest memory, [phys, phys+n) within phys's page,
// guestAccessOK), which then marks the page written for a write and returns
// the slice. Every other case goes to guestAccessFault, out of line, which
// only explains the refusal; whether an access is allowed is decided by
// guestAccessOK alone.
func (m *Machine) guestAccessPhys(vmpl VMPL, cpl CPL, phys uint64, n int, a Access, virt uint64) ([]byte, error) {
	if m.halted == nil && phys < m.cfg.MemBytes && uint64(n) <= PageSize-PageOffset(phys) &&
		m.rmp[phys>>PageShift].guestAccessOK(vmpl, cpl, a) {
		if a == AccessWrite {
			m.noteWrite(phys >> PageShift)
		}
		return m.mem[phys : phys+uint64(n)], nil
	}
	return nil, m.guestAccessFault(vmpl, cpl, phys, n, a, virt)
}

// guestAccessFault builds the error for an access guestAccessPhys refused:
// ErrHalted, the range error, or the RMP *Fault, which it records and
// halts the machine on.
func (m *Machine) guestAccessFault(vmpl VMPL, cpl CPL, phys uint64, n int, a Access, virt uint64) error {
	if err := m.checkRunning(); err != nil {
		return err
	}
	pi, err := m.physRange(phys, n)
	if err != nil {
		return err
	}
	// guestAccessOK refused, so checkGuestAccess returns a fault
	// (TestGuestAccessOKMatchesCheck pins the two together).
	f := m.rmp[pi].checkGuestAccess(vmpl, cpl, a).(*Fault)
	f.Virt, f.Phys = virt, phys
	m.Halt(f)
	return f
}

// noteWrite records a software write landing on page pi: the page may now
// hold non-zero bytes, and if the walker has read PTEs from it, the
// translations that walked through it may be stale.
func (m *Machine) noteWrite(pi uint64) {
	m.markWritten(pi)
	if m.isPTPage(pi) {
		m.invalidatePTPage(pi)
	}
}

// Span returns the RMP-checked backing slice for the physical range
// [phys, phys+n), which must lie within one page. It is the zero-copy
// counterpart of GuestReadPhys/GuestWritePhys: callers read or mutate guest
// memory in place instead of staging through an intermediate buffer. acc
// declares the intended use and is checked — and faults, and halts — exactly
// like the equivalent copying access. The slice aliases guest memory and
// must not be retained across RMP or page-state changes.
func (m *Machine) Span(vmpl VMPL, cpl CPL, phys uint64, n int, acc Access) ([]byte, error) {
	buf, err := m.guestAccessPhys(vmpl, cpl, phys, n, acc, 0)
	if err == nil {
		m.countSpan(acc)
	}
	return buf, err
}

// countSpan counts one zero-copy span handed out for acc.
func (m *Machine) countSpan(acc Access) {
	if acc == AccessWrite {
		m.memStats.SpanWrites++
	} else {
		m.memStats.SpanReads++
	}
}

// GuestReadPhys reads n bytes at a guest physical address, subject to RMP
// checks for the given VMPL/CPL. It is the primitive under AccessContext and
// is also used directly by layers that operate on physical addresses (e.g.
// VeilMon walking untrusted structures after sanitization).
func (m *Machine) GuestReadPhys(vmpl VMPL, cpl CPL, phys uint64, buf []byte) error {
	src, err := m.guestAccessPhys(vmpl, cpl, phys, len(buf), AccessRead, 0)
	if err != nil {
		return err
	}
	copy(buf, src)
	return nil
}

// GuestWritePhys writes buf at a guest physical address, subject to RMP
// checks for the given VMPL/CPL.
func (m *Machine) GuestWritePhys(vmpl VMPL, cpl CPL, phys uint64, buf []byte) error {
	dst, err := m.guestAccessPhys(vmpl, cpl, phys, len(buf), AccessWrite, 0)
	if err != nil {
		return err
	}
	copy(dst, buf)
	return nil
}

// GuestExecCheckPhys models an instruction fetch from a physical page: it
// performs the RMP execute check for the VMPL/CPL without transferring data.
func (m *Machine) GuestExecCheckPhys(vmpl VMPL, cpl CPL, phys uint64) error {
	_, err := m.guestAccessPhys(vmpl, cpl, phys, 1, AccessExec, 0)
	return err
}

// rawPage returns the backing bytes of a page without any checks. It is for
// hardware-internal paths only (page-table walker, launch load, accept
// scrub) and is deliberately unexported. Only LaunchLoad and scrub write
// through it.
func (m *Machine) rawPage(pi uint64) []byte {
	base := pi << PageShift
	return m.mem[base : base+PageSize]
}

// markWritten records that page pi may hold non-zero bytes. Every path
// that hands out writable guest memory calls it first.
func (m *Machine) markWritten(pi uint64) {
	m.written[pi>>6] |= 1 << (pi & 63)
}

// pageWritten reports whether page pi's written bit is set.
func (m *Machine) pageWritten(pi uint64) bool {
	return m.written[pi>>6]&(1<<(pi&63)) != 0
}

// scrub zeroes page pi for the PVALIDATE accept path. An unwritten page is
// already all zero, so only a written one is cleared (and its bit with it).
func (m *Machine) scrub(pi uint64) {
	if !m.pageWritten(pi) {
		return
	}
	clear(m.rawPage(pi))
	m.written[pi>>6] &^= 1 << (pi & 63)
}

// hostAccessPhys is the hypervisor's (or a device's) view of guest memory:
// it returns the backing slice for [phys, phys+n), which must lie within one
// page. SEV-SNP forbids outside software from touching guest-assigned pages,
// so those are refused; only shared pages succeed. A write to a page the
// walker has read PTEs from invalidates the translations through it. Like
// guestAccessPhys, an allowed access is one straight-line test and
// hostAccessFault explains a refusal out of line.
func (m *Machine) hostAccessPhys(phys uint64, n int, a Access) ([]byte, error) {
	if phys < m.cfg.MemBytes && uint64(n) <= PageSize-PageOffset(phys) && !m.rmp[phys>>PageShift].Assigned {
		if a == AccessWrite {
			m.noteWrite(phys >> PageShift)
		}
		return m.mem[phys : phys+uint64(n)], nil
	}
	return nil, m.hostAccessFault(phys, n, a)
}

// hostAccessFault builds the error for an access hostAccessPhys refused:
// the range error, or the refusal of a guest-assigned page, which it
// records as a denial.
func (m *Machine) hostAccessFault(phys uint64, n int, a Access) error {
	if _, err := m.physRange(phys, n); err != nil {
		return err
	}
	if a == AccessWrite {
		m.ObserveDenied(DeniedHVWrite, PageBase(phys))
		return fmt.Errorf("snp: hypervisor write to guest-assigned page %#x blocked", PageBase(phys))
	}
	// Reads of encrypted guest memory return ciphertext garbage on real
	// hardware; the model returns an error so tests can assert the leak
	// did not happen.
	m.ObserveDenied(DeniedHVRead, PageBase(phys))
	return fmt.Errorf("snp: hypervisor read of guest-assigned page %#x blocked", PageBase(phys))
}

// HVWritePhys models a hypervisor write; writes to guest-assigned pages are
// blocked (integrity protection) while shared pages succeed.
func (m *Machine) HVWritePhys(phys uint64, buf []byte) error {
	dst, err := m.hostAccessPhys(phys, len(buf), AccessWrite)
	if err != nil {
		return err
	}
	copy(dst, buf)
	return nil
}

// noGHCB is the MSR value of a VCPU whose GHCB MSR was never written. It is
// not page aligned, so no MSR write can store it.
const noGHCB = ^uint64(0)

// VCPUs returns the number of VCPUs the machine has; VCPU ids are
// [0, VCPUs).
func (m *Machine) VCPUs() int { return m.cfg.VCPUs }

// WriteGHCBMSR records the GHCB physical address for a VCPU. The MSR write
// is privileged: it requires CPL0 (§6.2 discusses why enclaves cannot do
// this themselves and rely on the OS to set it before scheduling them). The
// address must be page aligned, and the VCPU must exist; anything else
// raises #GP.
func (m *Machine) WriteGHCBMSR(vcpuID int, cpl CPL, phys uint64) error {
	if err := m.checkRunning(); err != nil {
		return err
	}
	if cpl != CPL0 {
		return &Fault{Kind: FaultGP, CPL: cpl, Why: "wrmsr GHCB requires CPL0"}
	}
	if vcpuID < 0 || vcpuID >= len(m.ghcbMSR) {
		return &Fault{Kind: FaultGP, CPL: cpl, Why: "wrmsr GHCB on a VCPU the machine does not have"}
	}
	if PageOffset(phys) != 0 {
		// The low 12 bits select the GHCB MSR protocol, not a GHCB page.
		return &Fault{Kind: FaultGP, CPL: cpl, Why: "wrmsr GHCB address not page aligned"}
	}
	if _, err := m.pageIndex(phys); err != nil {
		return err
	}
	m.ghcbMSR[vcpuID] = phys
	return nil
}

// ReadGHCBMSR returns the GHCB physical address for a VCPU (hypervisor
// side); false if the VCPU does not exist or never wrote its MSR.
func (m *Machine) ReadGHCBMSR(vcpuID int) (uint64, bool) {
	if vcpuID < 0 || vcpuID >= len(m.ghcbMSR) || m.ghcbMSR[vcpuID] == noGHCB {
		return 0, false
	}
	return m.ghcbMSR[vcpuID], true
}

// Package audit is the online security-invariant auditor: a set of pure
// checks over simulated machine state that encode the SNP/Veil properties
// the paper's protections rest on (§3, §5, §8), run at a configurable
// cadence against the live machine.
//
// The auditor attaches to a Machine through its audit hook and paces
// itself by the event stream: cheap "fast" checks run on every domain
// switch and every FastEvery events, full-state sweeps every SweepEvery
// events, and the one check that reads all guest memory only when Sweep
// is called at end of run. All checks read machine state only — they
// charge no virtual cycles and emit no events on success, so an audited
// clean run produces byte-identical deterministic outputs to an unaudited
// one. A violation emits a ClassInvariant event, freezes the machine's
// post-mortem flight dump, and is tallied for the exporters.
package audit

import (
	"fmt"

	"veil/internal/obs"
	"veil/internal/snp"
)

// Check indexes the invariant catalog. The values are stable: they appear
// in ClassInvariant events (Arg1) and in golden post-mortems.
type Check int

const (
	// CheckRMPTLBEpoch (fast): every architectural RMP/page-state mutation
	// must have invalidated the cached RMP verdicts — the machine's
	// unconditional mutation count and the TLB's RMP-flush count must
	// match. A divergence is exactly the un-invalidated-TLB attack surface
	// (§8.3): stale permission verdicts surviving a revocation.
	CheckRMPTLBEpoch Check = iota
	// CheckVMSAUnreadable (fast): no live save-area page may be readable
	// through normal guest loads at any VMPL (§3 — saved register state
	// stays out of reach of every software layer, §8.1 Table 1).
	CheckVMSAUnreadable
	// CheckRMPConsistency (sweep): structural RMP invariants — validated
	// pages are assigned, VMPL0 permissions on validated pages are never
	// revoked (the architecture has no instruction that could), and the
	// incremental validated-page count matches a full RMP scan (§3, §5.3).
	CheckRMPConsistency
	// CheckTLBVerdicts (sweep): every memoized RMP verdict in the software
	// TLB, when re-derived from the current RMP, must still pass. This is
	// the end-to-end form of CheckRMPTLBEpoch: not "was the TLB told to
	// invalidate" but "is anything cached that the RMP now forbids".
	CheckTLBVerdicts
	// CheckUnwrittenZero (end of run): every page the machine's written
	// bitmap records as never written is all zero. PVALIDATE and the boot
	// pool skip those pages, so a write that bypassed the bitmap would let
	// accepted private memory show bytes planted before it was accepted.
	// The check reads all guest memory, so only Sweep runs it.
	CheckUnwrittenZero
	// CheckVMPL3WX (sweep): no validated page grants VMPL3 both write and
	// supervisor execution. Kernel text is VMPL3 read and supervisor-exec,
	// every other OS page at most read, write and user-exec (§6.1), so
	// the OS can never write code and then run it as the kernel.
	CheckVMPL3WX

	// NumChecks is the catalog size.
	NumChecks
)

var checkNames = [NumChecks]string{
	"rmp-tlb-epoch", "vmsa-unreadable", "rmp-consistency", "tlb-verdicts",
	"unwritten-zero", "vmpl3-wx",
}

// String returns the check's catalog name.
func (c Check) String() string {
	if c >= 0 && c < NumChecks {
		return checkNames[c]
	}
	return "check(?)"
}

// Config tunes the auditor's cadence. Both cadences are rounded up to the
// next power of two: the pacing test runs on every machine event, and a
// mask keeps that hot path to a single AND.
type Config struct {
	// FastEvery runs the fast checks every N recorded events (default
	// 256; 0 keeps the default).
	FastEvery uint64
	// SweepEvery runs the full-state sweeps every N recorded events
	// (default 4096; 0 keeps the default).
	SweepEvery uint64
	// MaxDetails bounds the retained human-readable violation details
	// (default 32).
	MaxDetails int
}

// ceilPow2 rounds v up to the next power of two.
func ceilPow2(v uint64) uint64 {
	n := uint64(1)
	for n < v {
		n <<= 1
	}
	return n
}

// Auditor holds the check state for one machine. Create with Attach.
type Auditor struct {
	m   *snp.Machine
	cfg Config

	fastMask  uint64 // FastEvery-1 (power of two)
	sweepMask uint64 // SweepEvery-1 (power of two)

	events    uint64 // events seen through the hook
	fastRuns  uint64
	sweepRuns uint64

	violations uint64
	perCheck   [NumChecks]uint64
	details    []string
}

// Attach installs an auditor on m via its audit hook and returns it.
// Detach by calling m.SetAuditHook(nil).
func Attach(m *snp.Machine, cfg Config) *Auditor {
	if cfg.FastEvery == 0 {
		cfg.FastEvery = 256
	}
	if cfg.SweepEvery == 0 {
		cfg.SweepEvery = 4096
	}
	if cfg.MaxDetails == 0 {
		cfg.MaxDetails = 32
	}
	a := &Auditor{m: m, cfg: cfg}
	a.fastMask = ceilPow2(cfg.FastEvery) - 1
	a.sweepMask = ceilPow2(cfg.SweepEvery) - 1
	m.SetAuditHook(a.onEvent)
	return a
}

// onEvent is the machine's audit hook: pace the checks off the event
// stream. Domain switches are privilege-boundary crossings — exactly when
// the RMP/VMSA invariants are most at risk — so the O(1) epoch check runs
// on every one of them; the VMSA scan (O(#VMSA) guest-access probes) joins
// only at the FastEvery cadence to keep the always-on cost flat.
func (a *Auditor) onEvent(e obs.Event) {
	a.events++
	paced := a.events&a.fastMask == 0
	if e.Class == obs.ClassDomainSwitch || paced {
		a.runFast(paced)
	}
	if a.events&a.sweepMask == 0 {
		a.runSweeps()
	}
}

func (a *Auditor) runFast(full bool) {
	a.fastRuns++
	if muts, flushes := a.m.RMPMutations(), a.m.MemStats().TLBRMPFlushes; muts != flushes {
		a.report(CheckRMPTLBEpoch, 1,
			[]string{fmt.Sprintf("RMP mutations %d but only %d TLB verdict flushes", muts, flushes)})
	}
	if !full {
		return
	}
	if n, d := a.m.AuditVMSAUnreadable(a.cfg.MaxDetails); n > 0 {
		a.report(CheckVMSAUnreadable, n, d)
	}
}

func (a *Auditor) runSweeps() {
	a.sweepRuns++
	if n, d := a.m.AuditRMPConsistency(a.cfg.MaxDetails); n > 0 {
		a.report(CheckRMPConsistency, n, d)
	}
	if n, d := a.m.AuditTLBVerdicts(a.cfg.MaxDetails); n > 0 {
		a.report(CheckTLBVerdicts, n, d)
	}
	if n, d := a.m.AuditVMPL3WX(a.cfg.MaxDetails); n > 0 {
		a.report(CheckVMPL3WX, n, d)
	}
}

// Sweep forces one full pass of every check (fast, sweep and end of run)
// right now. Tools call it at end of run so short workloads that never
// reach the cadence thresholds still get one complete verdict.
func (a *Auditor) Sweep() {
	a.runFast(true)
	a.runSweeps()
	if n, d := a.m.AuditUnwrittenZero(a.cfg.MaxDetails); n > 0 {
		a.report(CheckUnwrittenZero, n, d)
	}
}

// report tallies a violating check and emits its ClassInvariant event; the
// first violation freezes the machine's post-mortem.
func (a *Auditor) report(c Check, n int, details []string) {
	first := a.violations == 0
	a.violations += uint64(n)
	a.perCheck[c] += uint64(n)
	for _, d := range details {
		if len(a.details) >= a.cfg.MaxDetails {
			break
		}
		a.details = append(a.details, c.String()+": "+d)
	}
	a.m.ObserveInvariant(uint64(c), uint64(n))
	if first {
		a.m.TriggerPostMortem("invariant: " + c.String())
	}
}

// Violations returns the total violation count across all checks.
func (a *Auditor) Violations() uint64 { return a.violations }

// ViolationsBy returns the violation count of one catalog check.
func (a *Auditor) ViolationsBy(c Check) uint64 {
	if c < 0 || c >= NumChecks {
		return 0
	}
	return a.perCheck[c]
}

// Details returns the retained human-readable violation details, in
// detection order (bounded by Config.MaxDetails).
func (a *Auditor) Details() []string { return a.details }

// FastRuns returns how many fast-check passes have run.
func (a *Auditor) FastRuns() uint64 { return a.fastRuns }

// SweepRuns returns how many sweep passes have run.
func (a *Auditor) SweepRuns() uint64 { return a.sweepRuns }

// Counters is a pull-based counter source for the obs aux registry
// (rec.AddAuxCounters(a.Counters)): check pacing and violation totals show
// up next to the TLB statistics in -metrics pages.
func (a *Auditor) Counters() (names []string, values []uint64) {
	names = []string{"audit-events", "audit-fast-runs", "audit-sweep-runs", "audit-violations"}
	values = []uint64{a.events, a.fastRuns, a.sweepRuns, a.violations}
	for c := Check(0); c < NumChecks; c++ {
		names = append(names, "audit-check-"+c.String())
		values = append(values, a.perCheck[c])
	}
	return names, values
}

package snp

import (
	"encoding/json"
	"fmt"
)

// This file is the single source of truth for the simulator's cost model.
// The virtual cycle counter stands in for RDTSC in the paper's evaluation;
// each constant is either a direct measurement from §9 of the paper or is
// derived from one (see DESIGN.md §5 for the derivations).

// CostKind labels a class of architectural event for cycle accounting.
type CostKind int

const (
	CostVMGEXIT CostKind = iota
	CostVMENTER
	CostVMCALL
	CostRMPADJUST
	CostPVALIDATE
	CostSyscall
	CostPageCopy
	CostPageEncrypt
	CostPageHash
	CostContextSwitch
	CostInterrupt
	CostCompute // generic workload computation
	// CostIdle is virtual time a machine spends quiescent waiting for an
	// external event — in a fleet, the cycles a clock domain skips forward
	// while rendezvousing with a fabric message from a peer machine. Idle
	// cycles advance the clock (virtual time keeps flowing) but represent
	// no executed work, so they get their own attribution bucket rather
	// than polluting CostCompute.
	CostIdle
	numCostKinds
)

var costKindNames = [...]string{
	"VMGEXIT", "VMENTER", "VMCALL", "RMPADJUST", "PVALIDATE",
	"syscall", "page-copy", "page-encrypt", "page-hash",
	"context-switch", "interrupt", "compute", "idle",
}

func (k CostKind) String() string {
	if k >= 0 && int(k) < len(costKindNames) {
		return costKindNames[k]
	}
	return fmt.Sprintf("cost(%d)", int(k))
}

// NumCostKinds is the number of defined cost kinds.
const NumCostKinds = int(numCostKinds)

// CostKindNames returns the display names of all cost kinds, indexed by
// CostKind value (a copy; exporters register it with obs recorders).
func CostKindNames() []string {
	out := make([]string, len(costKindNames))
	copy(out, costKindNames[:])
	return out
}

// Cost model constants, in virtual cycles.
const (
	// CyclesDomainSwitch is the round-trip cost of a hypervisor-relayed
	// domain switch: VMGEXIT with full VMSA state save plus VMENTER with
	// state restore of the target instance. §9.1 measures 7135 cycles.
	CyclesDomainSwitch = 7135

	// CyclesVMGEXITSave is the exit half of a domain switch (state save
	// plus hypervisor dispatch); CyclesVMENTERRestore is the entry half.
	// They sum to CyclesDomainSwitch.
	CyclesVMGEXITSave    = 3890
	CyclesVMENTERRestore = CyclesDomainSwitch - CyclesVMGEXITSave

	// CyclesVMCALL is a plain exit on a non-SNP VM, for the §9.1
	// comparison: ~1100 cycles on the paper's machine.
	CyclesVMCALL = 1100

	// CyclesRMPADJUST covers one RMPADJUST instruction. CyclesColdPageTouch
	// is the first-touch cost of a cold page. Derived jointly: Veil's boot
	// sweep issues three RMPADJUSTs per page (one permission vector each
	// for VMPL1-3) plus one cold touch; over the 524288 pages of the 2 GB
	// testbed guest that sweep must account for >70% of the ~2 s boot
	// delta at 1.9 GHz (§9.1), giving ~5080 cycles/page.
	CyclesRMPADJUST     = 560
	CyclesColdPageTouch = 3400

	// CyclesPVALIDATE is a page-state validation; cheaper than RMPADJUST
	// because no permission vector rewrite occurs.
	CyclesPVALIDATE = 240

	// CyclesSyscall is the native in-kernel syscall entry/exit cost
	// (SYSENTER path), exclusive of the work the syscall performs.
	CyclesSyscall = 300

	// CyclesPageCopy4K is a 4 KiB memory copy (~5.9 bytes/cycle).
	CyclesPageCopy4K = 700

	// CyclesPageEncrypt4K is AES-256-GCM over one page, used by VeilS-Enc
	// demand paging (~1 cycle/byte plus setup).
	CyclesPageEncrypt4K = 4200

	// CyclesPageHash4K is SHA-256 over one page plus metadata (~1.3
	// cycles/byte), used for measurement and freshness hashes.
	CyclesPageHash4K = 5200

	// CyclesContextSwitch is an intra-kernel process switch.
	CyclesContextSwitch = 1800

	// CyclesInterrupt is the delivery cost of a hardware interrupt into
	// the guest, exclusive of any exit.
	CyclesInterrupt = 900

	// SimClockHz converts virtual cycles to seconds: the EPYC 7313P in the
	// paper's testbed has a ~1.9 GHz base clock with 16 cores.
	SimClockHz = 1_900_000_000
)

// Clock is the machine's virtual cycle counter with per-kind attribution.
// It is not safe for concurrent use; the simulator is single-threaded by
// design so that every run is deterministic.
//
// An attached obs recorder reads the attribution table pull-based via
// SetCycleSource (wired in Machine.SetRecorder); Charge itself carries no
// recorder hook, so the cost model's hottest function is identical with
// and without tracing.
type Clock struct {
	total  uint64
	byKind [numCostKinds]uint64
}

// Charge advances the clock by n cycles attributed to kind k.
func (c *Clock) Charge(k CostKind, n uint64) {
	c.total += n
	if k >= 0 && int(k) < len(c.byKind) {
		c.byKind[k] += n
	}
}

// Cycles returns the total elapsed virtual cycles.
func (c *Clock) Cycles() uint64 { return c.total }

// AdvanceTo moves the clock forward to the target cycle count, charging
// the gap to kind k (CostIdle for fleet rendezvous waits). A target at or
// behind the current time is a no-op: virtual time never runs backwards.
func (c *Clock) AdvanceTo(target uint64, k CostKind) {
	if target > c.total {
		c.Charge(k, target-c.total)
	}
}

// CyclesOf returns the cycles attributed to a single event kind.
func (c *Clock) CyclesOf(k CostKind) uint64 {
	if int(k) >= len(c.byKind) {
		return 0
	}
	return c.byKind[k]
}

// Seconds converts the total elapsed cycles to seconds of simulated time.
func (c *Clock) Seconds() float64 { return float64(c.total) / SimClockHz }

// Snapshot returns a copy of the clock for differential measurements.
func (c *Clock) Snapshot() Clock { return *c }

// Since returns total cycles elapsed since an earlier snapshot.
func (c *Clock) Since(prev Clock) uint64 { return c.total - prev.total }

// SinceOf returns cycles of kind k elapsed since an earlier snapshot.
func (c *Clock) SinceOf(prev Clock, k CostKind) uint64 {
	if int(k) >= len(c.byKind) {
		return 0
	}
	return c.byKind[k] - prev.byKind[k]
}

// Attribution is a per-CostKind cycle breakdown: index with a CostKind to
// read that kind's share. It is the flame-graph-style decomposition the
// bench reports and the obs exporters print.
type Attribution [numCostKinds]uint64

// Total returns the sum over all kinds.
func (a Attribution) Total() uint64 {
	var t uint64
	for _, v := range a {
		t += v
	}
	return t
}

// Add accumulates another attribution into a.
func (a *Attribution) Add(b Attribution) {
	for i, v := range b {
		a[i] += v
	}
}

// Sub returns the per-kind difference a - b (for differential measurement
// against an earlier snapshot).
func (a Attribution) Sub(b Attribution) Attribution {
	var out Attribution
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Map returns the non-zero entries keyed by cost-kind name (JSON-friendly:
// Go marshals map keys in sorted order, so output is deterministic).
func (a Attribution) Map() map[string]uint64 {
	out := make(map[string]uint64)
	for i, v := range a {
		if v > 0 {
			out[CostKind(i).String()] = v
		}
	}
	return out
}

// MarshalJSON renders the attribution as a name→cycles object (non-zero
// entries only). Go marshals map keys sorted, so the output is
// deterministic.
func (a Attribution) MarshalJSON() ([]byte, error) { return json.Marshal(a.Map()) }

// AttributionSince returns the per-kind breakdown accumulated since an
// earlier snapshot.
func (c *Clock) AttributionSince(prev Clock) Attribution {
	var out Attribution
	for i := range c.byKind {
		out[i] = c.byKind[i] - prev.byKind[i]
	}
	return out
}

// AttributionOf converts a recorder's raw cycles-by-kind table (as returned
// by obs.Metrics.CyclesByKind) into a typed Attribution.
func AttributionOf(byKind []uint64) Attribution {
	var out Attribution
	for i := range out {
		if i < len(byKind) {
			out[i] = byKind[i]
		}
	}
	return out
}

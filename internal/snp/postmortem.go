package snp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"veil/internal/obs"
)

// Post-mortem flight recording.
//
// The Flight ring (obs.Flight) runs always-on and bounded, independent of
// the big trace ring; when the CVM halts (terminal #NPF), or the invariant
// auditor reports a violation, or a layer calls TriggerPostMortem, the
// machine freezes a PostMortem: the last events, the faulting context, the
// open causal spans and an RMP diff against the post-launch baseline.
// The dump is pure data built from deterministic state, so two identical
// runs produce byte-identical JSON — which is what the golden test pins.

// PMEvent is one decoded flight-ring event: the fixed-size obs.Event with
// its class and kind resolved to strings for human consumption.
type PMEvent struct {
	TS     uint64 `json:"ts"`
	Dur    uint64 `json:"dur,omitempty"`
	Class  string `json:"class"`
	VCPU   int32  `json:"vcpu"`
	VMPL   int16  `json:"vmpl"`
	Arg1   uint64 `json:"arg1"`
	Arg2   uint64 `json:"arg2"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// PMFault is the faulting context of a post-mortem, when one exists.
type PMFault struct {
	Kind   string `json:"kind"`
	VMPL   string `json:"vmpl"`
	CPL    string `json:"cpl"`
	Access string `json:"access"`
	Virt   uint64 `json:"virt"`
	Phys   uint64 `json:"phys"`
	Why    string `json:"why"`
}

// PMRMPState is one side of an RMP diff entry, rendered compactly.
type PMRMPState struct {
	Assigned  bool     `json:"assigned"`
	Validated bool     `json:"validated"`
	VMSA      bool     `json:"vmsa"`
	Perms     []string `json:"perms"`
}

func pmRMPState(e RMPEntry) PMRMPState {
	perms := make([]string, NumVMPLs)
	for v := 0; v < NumVMPLs; v++ {
		perms[v] = e.Perms[v].String()
	}
	return PMRMPState{Assigned: e.Assigned, Validated: e.Validated, VMSA: e.VMSA, Perms: perms}
}

// PMRMPDiff is one page whose RMP entry changed since the baseline.
type PMRMPDiff struct {
	Page   uint64     `json:"page"`
	Before PMRMPState `json:"before"`
	After  PMRMPState `json:"after"`
}

// pmRMPDiffMax bounds the diff in the dump; pages beyond it are counted in
// RMPDiffTruncated.
const pmRMPDiffMax = 256

// PostMortem is the frozen flight-recorder dump.
type PostMortem struct {
	// Reason says what froze the dump ("halt: #NPF", "invariant: ...",
	// or a caller-supplied trigger).
	Reason string `json:"reason"`
	// Cycles is the virtual clock at freeze time.
	Cycles uint64 `json:"cycles"`
	// Machine is the fleet identity of the machine that froze the dump
	// (0 on single-machine runs), so multi-CVM dumps stay attributable.
	Machine int `json:"machine"`
	// Fault is the faulting context when the freeze came from a fault.
	Fault *PMFault `json:"fault,omitempty"`
	// OpenSpans is the causal span stack at freeze time, outermost first:
	// the requests that were in flight when the machine died.
	OpenSpans []uint64 `json:"open_spans,omitempty"`
	// Events is the flight ring's content at freeze time, oldest first.
	Events []PMEvent `json:"events"`
	// DroppedEvents counts events the tail can no longer show (flight-ring
	// evictions, or everything beyond the tail when a trace recorder
	// shadows the flight ring).
	DroppedEvents uint64 `json:"dropped_events"`
	// DroppedByClass breaks DroppedEvents down per event class (classes
	// with zero drops are omitted): on a busy run almost everything rolls
	// out of the bounded tail, and this says *what kind* of evidence the
	// dump is missing.
	DroppedByClass map[string]uint64 `json:"dropped_by_class,omitempty"`
	// RMPDiff lists pages whose RMP entry differs from the post-launch
	// baseline (at most pmRMPDiffMax; RMPDiffTruncated counts the rest).
	RMPDiff          []PMRMPDiff `json:"rmp_diff,omitempty"`
	RMPDiffTruncated int         `json:"rmp_diff_truncated,omitempty"`
	// VMSAPages are the live save-area pages, ascending.
	VMSAPages []uint64 `json:"vmsa_pages,omitempty"`
	// ValidatedPages is the incremental validated-page count.
	ValidatedPages uint64 `json:"validated_pages"`
}

// SnapshotRMPBaseline captures the current RMP as the baseline future
// post-mortems diff against. The CVM boot paths call it once, right after
// launch, so a dump shows what changed during the run rather than the
// whole boot sweep.
func (m *Machine) SnapshotRMPBaseline() {
	m.rmpBaseline = append([]RMPEntry(nil), m.rmp...)
}

// TriggerPostMortem freezes a post-mortem dump now, if an event-tail
// source (flight ring or recorder) is attached and no dump exists yet. The invariant auditor calls it on the
// first violation; tests and tools may call it to capture a healthy run.
func (m *Machine) TriggerPostMortem(reason string) {
	m.buildPostMortem(reason, nil)
}

// PostMortem returns the frozen dump, or nil if nothing froze one.
func (m *Machine) PostMortem() *PostMortem { return m.pm }

// buildPostMortem freezes the dump once. It needs an event-tail source —
// the dump's whole value is the event tail — so a bare machine with
// neither a flight ring nor a recorder skips silently.
func (m *Machine) buildPostMortem(reason string, f *Fault) {
	if m.pm != nil || !m.hasFlightSource() {
		return
	}
	pm := &PostMortem{
		Reason:         reason,
		Cycles:         m.clock.total,
		Machine:        m.machineID,
		OpenSpans:      m.spans.Open(),
		DroppedEvents:  m.FlightDropped(),
		VMSAPages:      m.VMSAPages(),
		ValidatedPages: m.validatedCount,
	}
	if pm.DroppedEvents > 0 {
		byClass := m.FlightDroppedByClass()
		pm.DroppedByClass = make(map[string]uint64)
		for c := obs.Class(0); c < obs.NumClasses; c++ {
			if byClass[c] > 0 {
				pm.DroppedByClass[c.String()] = byClass[c]
			}
		}
	}
	if f != nil {
		pm.Fault = &PMFault{
			Kind: f.Kind.String(), VMPL: f.VMPL.String(), CPL: f.CPL.String(),
			Access: f.Access.String(), Virt: f.Virt, Phys: f.Phys, Why: f.Why,
		}
	}
	events := m.FlightTail()
	pm.Events = make([]PMEvent, len(events))
	for i, e := range events {
		pm.Events[i] = PMEvent{
			TS: e.TS, Dur: e.Dur, Class: e.Class.String(),
			VCPU: e.VCPU, VMPL: e.VMPL, Arg1: e.Arg1, Arg2: e.Arg2,
			Span: e.Span, Parent: e.Parent,
		}
	}
	if m.rmpBaseline != nil {
		for pi := range m.rmp {
			if m.rmp[pi] == m.rmpBaseline[pi] {
				continue
			}
			if len(pm.RMPDiff) >= pmRMPDiffMax {
				pm.RMPDiffTruncated++
				continue
			}
			pm.RMPDiff = append(pm.RMPDiff, PMRMPDiff{
				Page:   uint64(pi) << PageShift,
				Before: pmRMPState(m.rmpBaseline[pi]),
				After:  pmRMPState(m.rmp[pi]),
			})
		}
	}
	m.pm = pm
}

// WriteJSON writes the dump as indented JSON. Struct-driven
// marshalling keeps the output deterministic: identical runs dump
// byte-identical post-mortems.
func (pm *PostMortem) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pm)
}

// VMSAPages returns the physical addresses of all live save-area pages in
// ascending order.
func (m *Machine) VMSAPages() []uint64 {
	var pages []uint64
	for _, slots := range m.vmsas {
		for _, s := range slots {
			pages = append(pages, s.phys)
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

// RMPMutations returns the unconditional count of architectural RMP and
// page-state mutations. In a correct machine it equals
// MemStats().TLBRMPFlushes; the invariant auditor checks exactly that.
func (m *Machine) RMPMutations() uint64 { return m.rmpMutations }

// ValidatedCount returns the incrementally maintained number of pages with
// Validated set; the auditor's sweep recomputes it from the RMP.
func (m *Machine) ValidatedCount() uint64 { return m.validatedCount }

// AuditRMPConsistency sweeps the RMP for structural invariants of the SNP
// model (§3): a validated page must be assigned, and software can never
// revoke VMPL0's permissions on a validated non-VMSA page. It also
// recomputes the validated-page count against the incremental counter.
// A page has the VMSA bit exactly when the machine holds a save area there.
// At most max violation details are rendered (0 = unlimited); the returned
// count is always exact.
func (m *Machine) AuditRMPConsistency(max int) (int, []string) {
	var n int
	var details []string
	report := func(format string, args ...any) {
		n++
		if max <= 0 || len(details) < max {
			details = append(details, fmt.Sprintf(format, args...))
		}
	}
	var validated uint64
	var vmsaBits int
	for pi := range m.rmp {
		e := &m.rmp[pi]
		base := uint64(pi) << PageShift
		if e.Validated {
			validated++
			if !e.Assigned {
				report("page %#x validated but not assigned", base)
			}
			if e.Perms[VMPL0] != PermAll {
				report("page %#x validated with VMPL0 perms %s (must be %s)", base, e.Perms[VMPL0], PermAll)
			}
		}
		if e.VMSA {
			vmsaBits++
			if !e.Assigned {
				report("page %#x is a VMSA on an unassigned page", base)
			}
		}
	}
	if validated != m.validatedCount {
		report("validated-page accounting drifted: RMP holds %d, counter says %d", validated, m.validatedCount)
	}
	for vcpu, slots := range m.vmsas {
		for _, s := range slots {
			if !m.rmp[s.phys>>PageShift].VMSA {
				report("VCPU %d holds a VMSA at %#x that the RMP does not mark", vcpu, s.phys)
			}
			vmsaBits--
		}
	}
	if vmsaBits != 0 {
		report("VMSA registry drifted: the RMP marks %d more VMSA pages than the machine holds", vmsaBits)
	}
	return n, details
}

// AuditVMPL3WX finds validated pages on which VMPL3 holds both write and
// supervisor execution: the OS could then write code and run it as the
// kernel, which Veil's kernel W⊕X (§6.1) exists to rule out. At most max
// violation details are rendered (0 = unlimited); the returned count is
// always exact.
func (m *Machine) AuditVMPL3WX(max int) (int, []string) {
	var n int
	var details []string
	for pi := range m.rmp {
		e := &m.rmp[pi]
		if e.Validated && e.Perms[VMPL3].Has(PermWrite|PermSupervisorExec) {
			n++
			if max <= 0 || len(details) < max {
				details = append(details, fmt.Sprintf("page %#x grants VMPL3 %s", uint64(pi)<<PageShift, e.Perms[VMPL3]))
			}
		}
	}
	return n, details
}

// AuditVMSAUnreadable verifies that every live save-area page refuses
// normal guest loads at every VMPL — the architectural property that keeps
// saved register state out of reach of less privileged domains (§3, §8.1).
// The probes are pure (guestAccessOK on the entry) and never halt. The
// healthy outcome is denial on every probe, so the loop runs over the live
// VMSA set without allocating; a sorted detail pass happens only once a
// violation has been found.
func (m *Machine) AuditVMSAUnreadable(max int) (int, []string) {
	var n int
	for _, slots := range m.vmsas {
		for _, s := range slots {
			e := &m.rmp[s.phys>>PageShift]
			for v := VMPL0; v < NumVMPLs; v++ {
				if e.guestAccessOK(v, CPL0, AccessRead) {
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0, nil
	}
	// Violation path: re-walk in sorted page order so the rendered details
	// (and any golden post-mortem containing them) are deterministic.
	var details []string
	for _, phys := range m.VMSAPages() {
		pi := phys >> PageShift
		if pi >= uint64(len(m.rmp)) {
			continue
		}
		e := &m.rmp[pi]
		for v := VMPL0; v < NumVMPLs; v++ {
			if e.guestAccessOK(v, CPL0, AccessRead) {
				if max <= 0 || len(details) < max {
					details = append(details, fmt.Sprintf("VMSA page %#x readable at %s", phys, v))
				}
			}
		}
	}
	return n, details
}

// AuditTLBVerdicts re-derives the RMP verdict for every live TLB entry
// whose memoized verdict mask claims validity at the current RMP epoch. A
// mismatch means a stale cached verdict survived an RMP mutation — the
// classic un-invalidated-TLB attack surface the software TLB's epoch
// scheme exists to close. The sweep reads machine state only; it never
// fills, flushes or halts.
func (m *Machine) AuditTLBVerdicts(max int) (int, []string) {
	var n int
	var details []string
	for i := range m.tlb {
		e := &m.tlb[i]
		if e.key == (tlbKey{}) || e.rmpEpoch != m.tlbRMPEpoch || e.rmpOK == 0 {
			continue
		}
		if !m.tlbDepsCurrent(e) {
			continue
		}
		pi := e.physPage >> PageShift
		if pi >= uint64(len(m.rmp)) {
			continue
		}
		for _, acc := range []Access{AccessRead, AccessWrite, AccessExec} {
			if e.rmpOK&(1<<uint(acc)) == 0 {
				continue
			}
			if !m.rmp[pi].guestAccessOK(e.key.vmpl, e.key.cpl, acc) {
				n++
				if max <= 0 || len(details) < max {
					// Violation path only: rebuild the fault for its
					// human-readable denial reason.
					err := m.rmp[pi].checkGuestAccess(e.key.vmpl, e.key.cpl, acc)
					details = append(details, fmt.Sprintf(
						"stale TLB verdict: %s at %s/%s cached as allowed on page %#x, RMP now denies (%v)",
						acc, e.key.vmpl, e.key.cpl, e.physPage, err))
				}
			}
		}
	}
	return n, details
}

// zeroPage is the reference an unwritten page is compared against.
var zeroPage [PageSize]byte

// AuditUnwrittenZero checks the written-page bitmap's invariant: every page
// whose written bit is clear is all zero. That is what lets PVALIDATE and
// the boot pool skip those pages, and so what keeps accepted private memory
// from showing bytes planted before it was accepted. A violation means a
// write reached guest memory without passing a write funnel. The check
// reads every unwritten page, so it belongs at end of run, not on a
// periodic cadence. At most max details are rendered (0 = unlimited); the
// returned count is always exact.
func (m *Machine) AuditUnwrittenZero(max int) (int, []string) {
	var n int
	var details []string
	for pi := uint64(0); pi < uint64(len(m.rmp)); pi++ {
		if m.pageWritten(pi) || bytes.Equal(m.rawPage(pi), zeroPage[:]) {
			continue
		}
		n++
		if max <= 0 || len(details) < max {
			details = append(details, fmt.Sprintf("page %#x holds data but its written bit is clear", pi<<PageShift))
		}
	}
	return n, details
}

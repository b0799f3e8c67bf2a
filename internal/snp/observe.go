package snp

import "veil/internal/obs"

// This file is the machine's observation layer: every architectural event
// the simulator counts flows through exactly one Observe* helper. Each
// helper maintains the legacy Trace counter for its event (so Trace stays a
// thin compatibility view over the same instrumentation) and, when a sink
// is attached, records a typed obs event stamped with the virtual cycle
// clock, the current VCPU, the acting VMPL and the causal span context.
//
// Three sinks can be attached independently: the trace Recorder (one
// bounded ring + metrics, veil-sim -trace), the Flight ring (small,
// always-on, feeds the post-mortem dump), and the audit hook (the online
// invariant auditor paces itself off the event stream). With none
// attached (the default for a bare Machine) every helper is a counter
// bump plus a nil check: the fast path performs no allocation, which
// TestNilRecorderMachineZeroAllocs pins with testing.AllocsPerRun.
//
// When a Recorder is attached it shadows the flight ring: the recorder's
// ring already retains the newest events in record order (exactly the
// flight tail for any capacity of at least DefaultFlightCapacity), so the
// machine skips the second ring write on the hot path and the Flight*
// accessors derive the post-mortem tail (and its drop accounting) from
// the recorder instead. With no recorder the flight ring is fed
// directly — the always-on cheap path.

// SetRecorder attaches (or, with nil, detaches) an event recorder. The
// recorder also receives cycle attribution from the Clock, the cost-kind
// display names, the memory-path counters and the derived TLB gauges for
// its exporters.
func (m *Machine) SetRecorder(r *obs.Recorder) {
	m.rec = r
	r.SetCycleSource(func() []uint64 { return m.clock.byKind[:] })
	r.SetKindNames(CostKindNames())
	r.SetAuxCounters(m.memCounters)
	r.AddAuxGauges(m.memGauges)
}

// SetFlight attaches (or, with nil, detaches) the always-on flight ring
// that feeds the post-mortem dump. While a Recorder is also attached the
// ring is shadowed (see the package comment): it stays empty and the
// Flight* accessors read the recorder's tail instead.
func (m *Machine) SetFlight(f *obs.Flight) { m.flight = f }

// flightTailCap returns how many trailing events the post-mortem keeps.
func (m *Machine) flightTailCap() int {
	if m.flight != nil {
		return m.flight.Cap()
	}
	return obs.DefaultFlightCapacity
}

// FlightTail returns the newest flight-recorder events, oldest first:
// the recorder's tail when one is attached (shadow mode), the
// flight ring's contents otherwise.
func (m *Machine) FlightTail() []obs.Event {
	if m.rec != nil {
		return m.rec.Tail(m.flightTailCap())
	}
	return m.flight.Events()
}

// FlightTailLen returns how many events FlightTail would yield.
func (m *Machine) FlightTailLen() int {
	if m.rec != nil {
		n := int(m.rec.Total())
		if cap := m.flightTailCap(); n > cap {
			n = cap
		}
		if retained := m.rec.Len(); n > retained {
			n = retained
		}
		return n
	}
	return m.flight.Len()
}

// FlightDropped returns how many events the post-mortem tail can no
// longer show: everything ever recorded minus the tail.
func (m *Machine) FlightDropped() uint64 {
	if m.rec != nil {
		total := m.rec.Total()
		if tail := uint64(m.FlightTailLen()); total > tail {
			return total - tail
		}
		return 0
	}
	return m.flight.Dropped()
}

// FlightDroppedByClass breaks FlightDropped down per event class. In
// shadow mode it is the recorder's full-run class totals minus the tail's
// class counts; otherwise the flight ring's own eviction counters.
func (m *Machine) FlightDroppedByClass() [obs.NumClasses]uint64 {
	if m.rec != nil {
		met := m.rec.Metrics()
		var out [obs.NumClasses]uint64
		for c := obs.Class(0); c < obs.NumClasses; c++ {
			out[c] = met.Count(c)
		}
		for _, e := range m.FlightTail() {
			if e.Class < obs.NumClasses && out[e.Class] > 0 {
				out[e.Class]--
			}
		}
		return out
	}
	return m.flight.DroppedByClass()
}

// hasFlightSource reports whether a post-mortem event tail exists at all.
func (m *Machine) hasFlightSource() bool { return m.flight != nil || m.rec != nil }

// ObserveRingLatency feeds one batched-ring request latency (virtual
// cycles from SubmitSrv to the submitter observing the completion) into
// the recorder's per-VCPU latency histogram. No event is recorded and no
// cycles are charged — the latency layer must never perturb the cycle
// ledger the dark/tracing comparison pins.
func (m *Machine) ObserveRingLatency(cycles uint64) {
	if m.rec != nil {
		m.rec.RecordRingLatency(m.obsVCPU, cycles)
	}
}

// SetAuditHook installs (or, with nil, removes) the online invariant
// auditor's pacing hook. The hook runs after every recorded event; the
// machine guards against re-entry, so checks may themselves emit
// ClassInvariant events through ObserveInvariant.
func (m *Machine) SetAuditHook(fn func(obs.Event)) { m.auditHook = fn }

// memCounters surfaces the memory-path statistics (tlb.go) to obs
// exporters. Pull-based: called only when an exporter runs, so the TLB hot
// path stays event-free and the trace ring sees no extra traffic.
func (m *Machine) memCounters() ([]string, []uint64) {
	s := m.memStats
	return []string{"tlb-hit", "tlb-miss", "tlb-flush", "tlb-rmp-flush", "tlb-pt-invalidate", "span-read", "span-write"},
		[]uint64{s.TLBHits, s.TLBMisses, s.TLBFlushes, s.TLBRMPFlushes, s.TLBPTInvalidation, s.SpanReads, s.SpanWrites}
}

// memGauges derives the TLB hit rate from the raw counters so -metrics
// pages expose it directly instead of leaving the division to dashboards.
func (m *Machine) memGauges() ([]string, []float64) {
	s := m.memStats
	var rate float64
	if total := s.TLBHits + s.TLBMisses; total > 0 {
		rate = float64(s.TLBHits) / float64(total)
	}
	return []string{"tlb-hit-rate"}, []float64{rate}
}

// Recorder returns the attached recorder (nil when tracing is off).
func (m *Machine) Recorder() *obs.Recorder { return m.rec }

// SetMachineID tags the machine with its fleet identity. BootFleet calls
// it for every member; single-machine runs keep the zero default.
func (m *Machine) SetMachineID(id int) { m.machineID = id }

// MachineID returns the fleet identity set by SetMachineID.
func (m *Machine) MachineID() int { return m.machineID }

// SetObsVCPU sets the hardware VCPU subsequent events are attributed to.
// The hypervisor calls this at its entry points (VMGEXIT, interrupt
// injection, VCPU start); machine-internal events inherit the last value.
func (m *Machine) SetObsVCPU(v int) { m.obsVCPU = int32(v) }

// observing reports whether any event sink is attached.
func (m *Machine) observing() bool {
	return m.rec != nil || m.flight != nil || m.auditHook != nil
}

// BeginSpan opens a causal span nested under the current one. With no
// sink attached it returns the zero ref, keeping the fast path free.
func (m *Machine) BeginSpan() obs.SpanRef {
	if !m.observing() {
		return obs.SpanRef{}
	}
	return m.spans.Begin()
}

// EndSpan closes a span opened with BeginSpan (zero refs no-op). Most
// producers never call it directly: the Observe helper that records the
// span's completion event closes it.
func (m *Machine) EndSpan(ref obs.SpanRef) {
	if ref.ID != 0 {
		m.spans.End(ref)
	}
}

// CurrentSpan returns the innermost open span's ID (zero when none).
func (m *Machine) CurrentSpan() uint64 { return m.spans.Current() }

// RootSpan returns the outermost open span's ID (zero when none): the
// originating request context VeilS-Channel propagates across machines.
func (m *Machine) RootSpan() uint64 { return m.spans.Root() }

// emit records one instant event under the current span, if a sink is
// attached.
func (m *Machine) emit(class obs.Class, kind obs.EventKind, dur uint64, vmpl int16, a1, a2 uint64) {
	m.emitSpan(class, kind, dur, vmpl, a1, a2, obs.SpanRef{})
}

// emitSpan records one event carrying an explicit span identity (the
// zero ref degrades to an instant under the current span). Every sink —
// recorder, flight ring, audit hook — sees the same event.
func (m *Machine) emitSpan(class obs.Class, kind obs.EventKind, dur uint64, vmpl int16, a1, a2 uint64, ref obs.SpanRef) {
	if !m.observing() {
		return
	}
	parent := ref.Parent
	if ref.ID == 0 {
		parent = m.spans.Current()
	}
	// Fill one slot in place: the recorder's (its ring doubles as the
	// flight tail, so there is no second ring write), else the flight
	// ring's, else a local for the audit hook alone. Both rings hand out
	// dirty slots, so every Event field is assigned.
	var local obs.Event
	e := &local
	if m.rec != nil {
		e = m.rec.Alloc(m.obsVCPU)
	} else if m.flight != nil {
		e = m.flight.Alloc(class)
	}
	e.TS, e.Dur, e.Arg1, e.Arg2 = m.clock.total, dur, a1, a2
	e.VCPU, e.VMPL = m.obsVCPU, vmpl
	e.Class, e.Kind = class, kind
	e.Span, e.Parent = ref.ID, parent
	if m.auditHook != nil && !m.inAudit {
		m.inAudit = true
		m.auditHook(*e)
		m.inAudit = false
	}
}

// ObserveVMGEXIT counts one non-automatic exit (VMSA state save).
func (m *Machine) ObserveVMGEXIT() {
	m.trace.VMGExits++
	m.emit(obs.ClassVMGEXIT, obs.Instant, 0, -1, 0, 0)
}

// ObserveVMENTER counts one VMENTER resume (VMSA state restore).
func (m *Machine) ObserveVMENTER() {
	m.trace.VMEnters++
	m.emit(obs.ClassVMENTER, obs.Instant, 0, -1, 0, 0)
}

// ObserveVMCall counts one plain exit on a non-SNP VM.
func (m *Machine) ObserveVMCall() {
	m.trace.VMCalls++
	m.emit(obs.ClassVMCALL, obs.Instant, 0, -1, 0, 0)
}

// ObserveRoundTrip records the span of one full VMGEXIT service round trip
// that began at startCycles, tagged with the GHCB exit code. ref is the
// causal span the hypervisor opened for the round trip; it is closed here.
func (m *Machine) ObserveRoundTrip(exitCode uint64, startCycles uint64, ref obs.SpanRef) {
	m.EndSpan(ref)
	m.emitSpan(obs.ClassRoundTrip, obs.Span, m.clock.total-startCycles, -1, exitCode, 0, ref)
}

// ObserveDomainSwitch counts one completed hypervisor-relayed domain switch
// from one VMPL to another, spanning from startCycles to now. The switch is
// a leaf span: it gets its own causal identity under the current span but
// never parents other events.
func (m *Machine) ObserveDomainSwitch(from, to VMPL, startCycles uint64) {
	m.trace.DomainSwitches++
	var ref obs.SpanRef
	if m.observing() {
		ref = m.spans.Leaf()
	}
	m.emitSpan(obs.ClassDomainSwitch, obs.Span, m.clock.total-startCycles, int16(from), uint64(from), uint64(to), ref)
}

// observeRMPAdjust counts one RMPADJUST by caller on the page at phys,
// setting target's permission vector to perms (machine-internal; the
// architectural mutators call it after their checks pass).
func (m *Machine) observeRMPAdjust(caller, target VMPL, phys uint64, perms Perm) {
	m.trace.RMPAdjusts++
	m.emit(obs.ClassRMPAdjust, obs.Instant, 0, int16(caller), PageBase(phys), uint64(target)<<8|uint64(perms))
}

// observePValidate counts one PVALIDATE on the page at phys.
func (m *Machine) observePValidate(caller VMPL, phys uint64, validate bool) {
	m.trace.PValidates++
	var v uint64
	if validate {
		v = 1
	}
	m.emit(obs.ClassPValidate, obs.Instant, 0, int16(caller), PageBase(phys), v)
}

// ObserveSyscallEnter counts one guest-kernel syscall entry and opens its
// causal span; everything the syscall causes — audit relays, domain
// switches, RMP instructions — nests under the returned ref until
// ObserveSyscallExit closes it.
func (m *Machine) ObserveSyscallEnter(vmpl VMPL, sysno uint64) obs.SpanRef {
	m.trace.Syscalls++
	return m.BeginSpan()
}

// ObserveSyscallExit records the syscall's span event (Dur covers entry to
// exit) and closes the causal span opened by ObserveSyscallEnter.
func (m *Machine) ObserveSyscallExit(vmpl VMPL, sysno uint64, startCycles uint64, ref obs.SpanRef) {
	m.EndSpan(ref)
	m.emitSpan(obs.ClassSyscall, obs.Span, m.clock.total-startCycles, int16(vmpl), sysno, 0, ref)
}

// ObserveService records one protected-service invocation dispatched by
// the monitor (svc/op from the IDCB request), spanning from startCycles.
// ref is the span the dispatcher opened; it is closed here.
func (m *Machine) ObserveService(vmpl VMPL, svc, op uint64, startCycles uint64, ref obs.SpanRef) {
	m.EndSpan(ref)
	m.emitSpan(obs.ClassService, obs.Span, m.clock.total-startCycles, int16(vmpl), svc, op, ref)
}

// ObserveEnclaveEnter records one completed SDK enclave call (scheduler
// hook through relayed switch and back), tagged with the enclave's domain
// tag. ref is the span the SDK opened; it is closed here.
func (m *Machine) ObserveEnclaveEnter(tag uint64, startCycles uint64, ref obs.SpanRef) {
	m.EndSpan(ref)
	m.emitSpan(obs.ClassEnclaveEnter, obs.Span, m.clock.total-startCycles, int16(VMPL2), tag, 0, ref)
}

// ObserveAudit counts one emitted audit record of the given size.
func (m *Machine) ObserveAudit(vmpl VMPL, recordBytes uint64) {
	m.trace.AuditRecords++
	m.emit(obs.ClassAudit, obs.Instant, 0, int16(vmpl), recordBytes, 0)
}

// ObserveInterrupt counts one injected hardware interrupt (an automatic
// exit: no guest state crosses to the host).
func (m *Machine) ObserveInterrupt() {
	m.trace.Interrupts++
	m.trace.AutomaticExits++
	m.emit(obs.ClassInterrupt, obs.Instant, 0, -1, 0, 0)
}

// ObserveEnclaveExit counts one enclave → untrusted world transition.
func (m *Machine) ObserveEnclaveExit() {
	m.trace.EnclaveExits++
	m.emit(obs.ClassEnclaveExit, obs.Instant, 0, int16(VMPL2), 0, 0)
}

// ObserveFault records an architectural fault event. Halting #NPFs reach
// it through Halt; the non-halting fault paths (#GP refusals, guest #PF)
// call it at the point the fault is minted, so attack suites leave
// machine-checkable evidence even when the CVM survives.
func (m *Machine) ObserveFault(f *Fault) {
	if f == nil {
		return
	}
	m.emit(obs.ClassFault, obs.Instant, 0, int16(f.VMPL), f.Phys, uint64(f.Kind))
}

// DeniedReason classifies refused-but-survivable operations for
// ClassDenied events (Arg1).
type DeniedReason uint64

const (
	// DeniedHVRead: hypervisor read of a guest-assigned page blocked.
	DeniedHVRead DeniedReason = iota
	// DeniedHVWrite: hypervisor write to a guest-assigned page blocked.
	DeniedHVWrite
	// DeniedSanitize: the monitor's sanitizer rejected an OS-supplied
	// address range (§5.2), or the enclave SDK an argv length the
	// untrusted application wrote past the entry block's argv area.
	DeniedSanitize
	// DeniedPinned: the kernel refused to retype or unmap a region pinned
	// by a protected service (§7).
	DeniedPinned
	// DeniedGHCB: the hypervisor could not read the GHCB the exiting VCPU
	// pointed at (unmapped or guest-private page).
	DeniedGHCB
	// DeniedPolicy: a domain-switch request refused by GHCB policy.
	DeniedPolicy
	// DeniedRing: a ring descriptor refused by the monitor's drain-time
	// re-validation (bad sequence, oversized lengths, payload pointers
	// into protected regions, or RMP permissions the submitter lacks).
	DeniedRing
	// DeniedIntrRoute: the SMP scheduler detected that a completion
	// interrupt never reached the VCPU blocked on it (the host misrouted
	// it to another VCPU or swallowed it), and refused to keep scheduling
	// rather than deadlock (context = the stranded VCPU).
	DeniedIntrRoute
	// DeniedChannel: VeilS-Channel refused a cross-CVM session or message
	// — an unverifiable or mismeasured peer report, a handshake transcript
	// that does not match the live nonces (replayed report), or a sealed
	// frame that failed authenticated decryption (fabric-level replay,
	// reorder or tamper). Context = the peer machine id.
	DeniedChannel
	// DeniedIago: the SDK killed an enclave rather than act on what the
	// host returned — a syscall result that failed the Iago check (a
	// pointer into the enclave, a byte count past the caller's buffer) —
	// or on a syscall it cannot shield (no specification, or ENOSYS from
	// the host). Context = the syscall number.
	DeniedIago
	// DeniedVMRUN: VMRUN refused a page the host chose for a VCPU: its RMP
	// entry is not a VMSA, or the VMSA is another VCPU's. Context = the page.
	DeniedVMRUN
)

var deniedReasonNames = [...]string{
	DeniedHVRead:    "hv-read",
	DeniedHVWrite:   "hv-write",
	DeniedSanitize:  "sanitize",
	DeniedPinned:    "pinned",
	DeniedGHCB:      "ghcb",
	DeniedPolicy:    "policy",
	DeniedRing:      "ring",
	DeniedIntrRoute: "intr-route",
	DeniedChannel:   "channel",
	DeniedIago:      "iago",
	DeniedVMRUN:     "vmrun",
}

// String returns the refusal class's catalog name, so attack evidence and
// model-checker counterexamples print "intr-route" instead of "7".
func (r DeniedReason) String() string {
	if int(r) < len(deniedReasonNames) {
		return deniedReasonNames[r]
	}
	return "denied(?)"
}

// ObserveDenied records one refused-but-survivable operation: sanitizer
// rejections, blocked hypervisor accesses, policy refusals. These are the
// defence-held breadcrumbs the attack suites assert on.
func (m *Machine) ObserveDenied(reason DeniedReason, context uint64) {
	m.emit(obs.ClassDenied, obs.Instant, 0, -1, uint64(reason), context)
}

// ObserveNetTx records one cross-CVM frame leaving this machine with
// fleet trace context attached: trace is the packed origin ref, span the
// packed sender-local span ref (see obs.PackTraceRef). An instant with no
// cycle charge — tracing must not perturb the ledger.
func (m *Machine) ObserveNetTx(trace, span uint64) {
	m.emit(obs.ClassNetTx, obs.Instant, 0, -1, trace, span)
}

// ObserveNetRx records one cross-CVM frame arriving at this machine,
// stamped with the trace context it carried. Emitted under the current
// span (the delivery service invocation), so refusal evidence recorded
// while handling the frame shares its Parent and joins the trace.
func (m *Machine) ObserveNetRx(trace, span uint64) {
	m.emit(obs.ClassNetRx, obs.Instant, 0, -1, trace, span)
}

// ObserveInvariant records one invariant-auditor violation report: check
// is the auditor's catalog index, violations how many sites the check
// found this pass. Clean runs never emit one.
func (m *Machine) ObserveInvariant(check uint64, violations uint64) {
	m.emit(obs.ClassInvariant, obs.Instant, 0, -1, check, violations)
}

// ObserveRingSubmit counts one descriptor posted to a submission ring by
// the given VMPL. An instant, not a span: submission crosses no privilege
// boundary, which is exactly what the batched path buys.
func (m *Machine) ObserveRingSubmit(vmpl VMPL, seq uint64, svc uint64) {
	m.emit(obs.ClassRingSubmit, obs.Instant, 0, int16(vmpl), seq, svc)
}

// ObserveRingDrain records the span of one doorbell-triggered batch drain
// that began at startCycles: drained descriptors were dispatched, refused
// ones failed re-validation. ref is the span the monitor opened for the
// drain; it is closed here.
func (m *Machine) ObserveRingDrain(vmpl VMPL, drained, refused uint64, startCycles uint64, ref obs.SpanRef) {
	m.EndSpan(ref)
	m.emitSpan(obs.ClassRingDrain, obs.Span, m.clock.total-startCycles, int16(vmpl), drained, refused, ref)
}

// ObserveSchedSlice records the span of one SMP-scheduler slice that began
// at startCycles: a bounded burst of work (kind 0 = task step, 1 = deferred
// ring drain) whose cycles are charged to the given VCPU. Like a domain
// switch it is a leaf span: it never parents other events.
func (m *Machine) ObserveSchedSlice(vcpu int, kind uint64, startCycles uint64) {
	var ref obs.SpanRef
	if m.observing() {
		ref = m.spans.Leaf()
	}
	m.emitSpan(obs.ClassSchedSlice, obs.Span, m.clock.total-startCycles, -1, uint64(vcpu), kind, ref)
}

// ObservePageState records one hypervisor page-state change batch starting
// at phys covering count pages (assign donates to the guest).
func (m *Machine) ObservePageState(phys uint64, count uint64, assign bool) {
	var a uint64
	if assign {
		a = 1
	}
	m.emit(obs.ClassPageState, obs.Instant, 0, -1, PageBase(phys), count<<1|a)
}

// Package obs is the simulator's observability substrate: a bounded
// ring-buffer event tracer plus a metrics registry (monotonic counters,
// log₂-bucketed latency histograms and a per-cost-kind cycle-attribution
// table), with exporters for Chrome trace_event JSON, Prometheus text
// exposition and collapsed flame-graph stacks.
//
// The package is deliberately zero-dependency within the repository: it
// knows nothing about SEV-SNP, VMPLs or the cost model. Producers (the snp
// machine and the layers above it) stamp events with the virtual cycle
// clock and whatever identifiers they own; consumers (cmd/veil-sim,
// cmd/veil-bench, tests) pick the exporter they need. Everything is
// deterministic: identical simulations produce byte-identical exports.
//
// # The record path
//
// A recorder is one ring of fixed-size events shared by every VCPU of its
// machine, in record order: the simulator steps all VCPUs on one
// goroutine, so the ring has a single producer and needs no lock. The hot
// path is one slot write with no per-event metrics folding. Aggregation
// is deferred: an event's contribution to the counters and histograms is
// folded in either when the event is evicted (the ring wrapped) or when
// Metrics() scans the retained events. Folded plus scanned together
// always equal exactly what eager per-event aggregation would have
// produced, so eviction never loses metrics — only raw events. The
// per-VCPU views (request and ring-latency histograms) are indexed by
// the VCPU id each event carries.
//
// A nil *Recorder is a valid recorder that records nothing; every method
// has a nil fast path that performs no allocation, so the simulator can be
// instrumented unconditionally and pay nothing when tracing is off.
package obs

// Class is the event taxonomy: one value per kind of architectural or
// framework event the simulator emits. The taxonomy mirrors the paper's
// evaluation (§9): exit/enter pairs, domain switches, RMP instructions,
// syscalls and audit relays are exactly the events whose rates and costs
// the figures report.
type Class uint8

const (
	// ClassVMGEXIT is a non-automatic guest exit (VMSA state save).
	ClassVMGEXIT Class = iota
	// ClassVMENTER is a VMENTER resume (VMSA state restore).
	ClassVMENTER
	// ClassVMCALL is a plain exit on a non-SNP VM (comparison path).
	ClassVMCALL
	// ClassRoundTrip spans a full VMGEXIT→…→VMENTER service round trip.
	ClassRoundTrip
	// ClassDomainSwitch spans one hypervisor-relayed domain switch
	// (Arg1/Arg2 carry the from/to VMPL).
	ClassDomainSwitch
	// ClassRMPAdjust is one RMPADJUST (Arg1 = page, Arg2 = target
	// VMPL<<8 | permission bits).
	ClassRMPAdjust
	// ClassPValidate is one PVALIDATE (Arg1 = page, Arg2 = 1 when
	// validating, 0 when rescinding).
	ClassPValidate
	// ClassSyscall is a guest-kernel syscall entry (Arg1 = syscall
	// number).
	ClassSyscall
	// ClassAudit is one audit-record emission (Arg1 = record bytes).
	ClassAudit
	// ClassInterrupt is a hardware-interrupt injection (automatic exit).
	ClassInterrupt
	// ClassEnclaveExit is an enclave → untrusted world transition.
	ClassEnclaveExit
	// ClassFault is an architectural fault; for the #NPF kind this is the
	// terminal event of a halted CVM (Arg1 = phys, Arg2 = fault kind).
	ClassFault
	// ClassPageState is a hypervisor page-state change batch (Arg1 =
	// first page, Arg2 = count<<1 | assign bit).
	ClassPageState
	// ClassService spans one protected-service invocation through the
	// monitor's dispatcher (Arg1 = service id, Arg2 = operation code).
	ClassService
	// ClassEnclaveEnter spans one SDK enclave call: from the scheduler
	// hook through the relayed domain switch to the enclave's return
	// (Arg1 = enclave tag).
	ClassEnclaveEnter
	// ClassDenied is a refused-but-survivable operation: a sanitizer
	// rejection, a blocked hypervisor access, a policy refusal (Arg1/Arg2
	// carry producer-specific context, see DeniedReason).
	ClassDenied
	// ClassInvariant is a security-invariant violation reported by the
	// online auditor (Arg1 = check index, Arg2 = violation count). Clean
	// runs never record one.
	ClassInvariant
	// ClassRingSubmit is one descriptor posted to a service submission
	// ring by the OS domain (Arg1 = slot sequence number, Arg2 = service
	// id). No domain switch happens at submit time — that is the point.
	ClassRingSubmit
	// ClassRingDrain spans one doorbell-triggered batch drain inside the
	// monitor domain (Arg1 = descriptors drained, Arg2 = descriptors
	// refused by re-validation).
	ClassRingDrain
	// ClassSchedSlice spans one SMP-scheduler slice: a bounded burst of
	// work charged to one VCPU (Arg1 = VCPU, Arg2 = slice kind: 0 = task,
	// 1 = deferred ring drain).
	ClassSchedSlice
	// ClassNetTx is one cross-CVM frame leaving this machine with trace
	// context attached (Arg1 = the fleet trace ref, Arg2 = the sender's
	// machine-qualified span ref — see PackTraceRef). The matching
	// ClassNetRx on the receiving machine carries the identical pair,
	// which is how fleet exporters join the two ends of a wire hop.
	ClassNetTx
	// ClassNetRx is one cross-CVM frame arriving at this machine, stamped
	// with the trace context the frame carried (Arg1/Arg2 as ClassNetTx).
	// Its Parent is the local delivery invocation's span, so denial
	// evidence recorded while processing the frame joins to the trace.
	ClassNetRx

	// NumClasses is the number of defined event classes.
	NumClasses
)

var classNames = [NumClasses]string{
	"vmgexit", "vmenter", "vmcall", "vmgexit-roundtrip", "domain-switch",
	"rmpadjust", "pvalidate", "syscall", "audit-emit", "interrupt",
	"enclave-exit", "fault", "page-state", "service", "enclave-enter",
	"denied", "invariant", "ring-submit", "ring-drain", "sched-slice",
	"net-tx", "net-rx",
}

func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return "class(?)"
}

// EventKind distinguishes point-in-time events from duration spans.
type EventKind uint8

const (
	// Instant is a point event; Dur is zero.
	Instant EventKind = iota
	// Span is a duration event; TS is the *end* timestamp and Dur the
	// length, both in virtual cycles.
	Span
)

// Event is one recorded trace event. The struct is fixed-size and
// string-free so recording never allocates.
type Event struct {
	// TS is the virtual-cycle timestamp. For spans it is the end of the
	// span (the event is recorded when the operation completes).
	TS uint64
	// Dur is the span length in virtual cycles (zero for instants).
	Dur uint64
	// Arg1, Arg2 carry class-specific payload (see the Class constants).
	Arg1, Arg2 uint64
	// VCPU is the hardware VCPU the event occurred on; it selects the
	// per-VCPU request histogram the event feeds.
	VCPU int32
	// VMPL is the privilege level of the acting context, or -1 when the
	// producer does not know it.
	VMPL int16
	// Span is the event's own causal identity: non-zero for events that
	// open a node in the request tree (round trips, syscalls, domain
	// switches, service invocations). Parent is the span the event is
	// causally nested under, zero at top level. IDs are allocated
	// monotonically by the producer's SpanTracker, so identical runs
	// assign identical trees.
	Span, Parent uint64
	// Class is the event's taxonomy entry.
	Class Class
	// Kind says whether the event is an Instant or a Span.
	Kind EventKind
}

// Start returns the span's start timestamp (TS for instants).
func (e Event) Start() uint64 { return e.TS - e.Dur }

// DefaultCapacity is the ring size used when NewRecorder is given a
// non-positive capacity: large enough to hold a full small-machine boot
// sweep plus a demo run (64 B/event ⇒ 16 MiB).
const DefaultCapacity = 1 << 18

// ring is the bounded event buffer Recorder and Flight are both built
// on. Producers claim a slot and fill it in place; once the ring has
// wrapped, each claim overwrites the oldest retained event. The ring
// counts claims but keeps no other accounting: what an overwritten event
// was worth is its owner's business.
type ring struct {
	buf   []Event
	next  int // next write position
	full  bool
	total uint64 // slots ever claimed (retained + overwritten)
}

func newRing(capacity int) ring {
	g := ring{buf: make([]Event, capacity)}
	// Fault the ring in now, one touch per page: large rings come from the
	// OS as unmapped zero pages, and taking ~16 first-touch faults per MiB
	// lazily would land inside whatever window the caller is measuring.
	for i := 0; i < capacity; i += 64 {
		g.buf[i].TS = 0
	}
	return g
}

// claim returns the next slot dirty: it still holds whatever event
// occupied it last time around the ring, so the caller assigns every
// field.
func (g *ring) claim() *Event {
	g.total++
	e := &g.buf[g.next]
	g.next++
	if g.next == len(g.buf) {
		g.next = 0
		g.full = true
	}
	return e
}

// skip counts n claims whose events the producer never wrote, because
// later claims overwrite them before anyone could read them. The ring
// restarts empty: every event it held is as overwritten as the skipped
// ones, and the claims that follow refill it from the first slot.
func (g *ring) skip(n uint64) {
	g.total += n
	g.next, g.full = 0, false
}

// len returns the number of retained events.
func (g *ring) len() int {
	if g.full {
		return len(g.buf)
	}
	return g.next
}

// dropped returns how many claimed events were overwritten.
func (g *ring) dropped() uint64 { return g.total - uint64(g.len()) }

// newest copies out the newest n retained events (all of them when n is
// negative or exceeds the retained count), oldest first.
func (g *ring) newest(n int) []Event {
	if l := g.len(); n < 0 || n > l {
		n = l
	}
	out := make([]Event, n)
	if start := g.next - n; start >= 0 {
		copy(out, g.buf[start:g.next])
	} else {
		k := copy(out, g.buf[len(g.buf)+start:])
		copy(out[k:], g.buf[:g.next])
	}
	return out
}

// aggregate is the metrics contribution of a set of events: per-class
// event counts, per-class span-duration histograms, per-service dispatch
// latency and the per-request (root span) latency distribution, overall
// and per VCPU. A recorder keeps one aggregate holding everything evicted
// from its ring; Metrics() copies it and folds the retained events on
// top, so the snapshot always covers the full run.
type aggregate struct {
	counts   [NumClasses]uint64
	spans    [NumClasses]Histogram
	svc      [MaxServices]Histogram
	requests Histogram
	vcpuReqs []Histogram // index = VCPU (negative ids count as VCPU 0)
}

// vcpuIndex maps an event's VCPU id to its per-VCPU slot.
func vcpuIndex(v int32) int {
	if v < 0 {
		return 0
	}
	return int(v)
}

// fold adds one event's metrics contribution.
func (a *aggregate) fold(e *Event) {
	if e.Class >= NumClasses {
		return
	}
	a.counts[e.Class]++
	if e.Kind != Span {
		return
	}
	a.spans[e.Class].Observe(e.Dur)
	if e.Class == ClassService && e.Arg1 < MaxServices {
		a.svc[e.Arg1].Observe(e.Dur)
	}
	// Root spans feed the per-request latency distribution — except
	// enclave sessions: one ClassEnclaveEnter span covers an entire
	// workload run, and folding it in pulls the request Mean orders of
	// magnitude above P99 (one session ≠ one request). Sessions are still
	// counted and bucketed under their own class histogram above.
	if e.Span != 0 && e.Parent == 0 && e.Class != ClassEnclaveEnter {
		a.requests.Observe(e.Dur)
		if v := vcpuIndex(e.VCPU); v < len(a.vcpuReqs) {
			a.vcpuReqs[v].Observe(e.Dur)
		}
	}
}

// Recorder is the bounded event ring plus its metrics registry. It has
// exactly one producer goroutine, like the machine it instruments.
//
// A nil *Recorder is valid: Record and the accessors all no-op.
type Recorder struct {
	ring
	evicted aggregate   // metrics of events that rolled out of the ring
	ringLat []Histogram // per-VCPU submit→complete latency, fed by RecordRingLatency

	// cycleSrc is the producer's cycle-attribution table (the virtual
	// clock's, wired by SetCycleSource), read at export time with no
	// per-charge mirror call on the hot path. It reads empty until set.
	cycleSrc  func() []uint64
	kindNames []string
	svcNames  []string

	// aux holds pull-based sources of producer-owned named counters (e.g.
	// the snp machine's TLB statistics, the invariant auditor's check
	// totals). Exporters read them at write time, so producers pay
	// nothing on their hot paths. gauges are the same for derived
	// floating-point values (rates, ratios).
	aux    []func() (names []string, values []uint64)
	gauges []func() (names []string, values []float64)

	// machine identifies which fleet member this recorder belongs to.
	// Exporters use it as the machine dimension (the Chrome trace pid, the
	// Prometheus machine label), so merged fleet exports keep one process
	// track and one series set per CVM. Zero for single-machine runs.
	machine int
}

// NewRecorder creates a recorder whose ring holds capacity events
// (DefaultCapacity if capacity <= 0). When the ring is full the oldest
// event is evicted (folded into the recorder's aggregate) and the drop
// counter incremented; metrics are never dropped.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{ring: newRing(capacity), cycleSrc: noCycles}
	r.addVCPU(0)
	return r
}

// addVCPU grows the per-VCPU histograms to cover VCPU v.
func (r *Recorder) addVCPU(v int32) {
	for vcpuIndex(v) >= len(r.ringLat) {
		r.ringLat = append(r.ringLat, Histogram{})
		r.evicted.vcpuReqs = append(r.evicted.vcpuReqs, Histogram{})
	}
}

// Alloc claims the next ring slot for an event on the given VCPU: the
// zero-copy fast path for hot producers, who must assign EVERY field in
// place, with VCPU equal to vcpu (the slot is returned dirty — it still
// holds whatever event occupied it last time around the ring). The
// evicted occupant is folded into the recorder's aggregate first. Unlike
// the other methods Alloc is NOT nil-safe: the producer's own
// recorder-attached check is the nil gate.
func (r *Recorder) Alloc(vcpu int32) *Event {
	if int(vcpu) >= len(r.ringLat) {
		r.addVCPU(vcpu)
	}
	if r.full {
		r.evicted.fold(&r.buf[r.next])
	}
	return r.claim()
}

// Skip accounts n instant events of class c that rolled out of the ring
// before anyone read them, as if each had been claimed with Alloc and
// then evicted: every retained event is evicted (folded) first, the n
// instants count in the eviction tallies, and the ring restarts empty. A
// producer that knows its next Cap() events overwrite these n uses Skip
// instead of writing them. Like Alloc it is NOT nil-safe.
func (r *Recorder) Skip(vcpu int32, c Class, n uint64) {
	if int(vcpu) >= len(r.ringLat) {
		r.addVCPU(vcpu)
	}
	r.foldRetained(&r.evicted)
	if c < NumClasses {
		r.evicted.counts[c] += n
	}
	r.skip(n)
}

// foldRetained folds every retained event into a, oldest first.
func (r *Recorder) foldRetained(a *aggregate) {
	if r.full {
		for i := r.next; i < len(r.buf); i++ {
			a.fold(&r.buf[i])
		}
	}
	for i := 0; i < r.next; i++ {
		a.fold(&r.buf[i])
	}
}

// Cap returns the ring capacity. Nil-safe (zero).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// RecordRingLatency feeds one batched-ring request latency — virtual
// cycles from SubmitSrv to the submitter first observing the completion —
// into the VCPU's histogram. It records no event: latency distributions
// must cover the whole run regardless of ring eviction. Nil-safe.
func (r *Recorder) RecordRingLatency(vcpu int32, cycles uint64) {
	if r == nil {
		return
	}
	r.addVCPU(vcpu)
	r.ringLat[vcpuIndex(vcpu)].Observe(cycles)
}

// noCycles is the cycle source of a recorder no producer has wired.
func noCycles() []uint64 { return nil }

// SetCycleSource registers the pull-based cycle-attribution source read at
// snapshot time (Metrics) — the natural wiring for a producer whose clock
// already attributes every cycle by kind, since it costs nothing per
// charge. Nil-safe.
func (r *Recorder) SetCycleSource(src func() []uint64) {
	if r == nil {
		return
	}
	r.cycleSrc = src
}

// SetKindNames installs the display names for the attribution table's cost
// kind indexes. Nil-safe.
func (r *Recorder) SetKindNames(names []string) {
	if r == nil {
		return
	}
	r.kindNames = names
}

// SetServiceNames installs display names for the per-service latency
// histograms (index = the protocol's service id). Nil-safe.
func (r *Recorder) SetServiceNames(names []string) {
	if r == nil {
		return
	}
	r.svcNames = names
}

// SetAuxCounters resets the counter registry to the single given source
// (pass nil to detach everything). Sources are called at export time only.
// Nil-safe.
func (r *Recorder) SetAuxCounters(src func() (names []string, values []uint64)) {
	if r == nil {
		return
	}
	if src == nil {
		r.aux = nil
		return
	}
	r.aux = []func() ([]string, []uint64){src}
}

// AddAuxCounters appends another pull-based counter source; exporters
// concatenate all sources in registration order. Nil-safe.
func (r *Recorder) AddAuxCounters(src func() (names []string, values []uint64)) {
	if r == nil || src == nil {
		return
	}
	r.aux = append(r.aux, src)
}

// AuxCounters returns every registered source's current counters,
// concatenated in registration order. Nil-safe.
func (r *Recorder) AuxCounters() (names []string, values []uint64) {
	if r == nil {
		return nil, nil
	}
	for _, src := range r.aux {
		n, v := src()
		names = append(names, n...)
		values = append(values, v...)
	}
	return names, values
}

// AddAuxGauges appends a pull-based source of derived floating-point
// gauges (rates, ratios) that exporters surface alongside the raw
// counters. Nil-safe.
func (r *Recorder) AddAuxGauges(src func() (names []string, values []float64)) {
	if r == nil || src == nil {
		return
	}
	r.gauges = append(r.gauges, src)
}

// AuxGauges returns every registered gauge source's current values,
// concatenated in registration order. Nil-safe.
func (r *Recorder) AuxGauges() (names []string, values []float64) {
	if r == nil {
		return nil, nil
	}
	for _, src := range r.gauges {
		n, v := src()
		names = append(names, n...)
		values = append(values, v...)
	}
	return names, values
}

// Len returns the number of events currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.len()
}

// SetMachine tags the recorder with its fleet machine id. Exporters use
// the tag as the process dimension; BootFleet calls this for every
// per-machine recorder it is handed. Nil-safe no-op.
func (r *Recorder) SetMachine(id int) {
	if r == nil {
		return
	}
	r.machine = id
}

// Machine returns the fleet machine id set by SetMachine (0 — the
// single-machine default — otherwise). Nil-safe.
func (r *Recorder) Machine() int {
	if r == nil {
		return 0
	}
	return r.machine
}

// Total returns how many events have ever been recorded (retained +
// evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped returns how many events were evicted due to ring overflow.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped()
}

// Events returns a copy of the retained events in record order.
func (r *Recorder) Events() []Event {
	return r.Tail(-1)
}

// Tail returns a copy of the newest n retained events in record order
// (all of them when n is negative or fewer are retained). For any
// capacity of at least n the tail is exactly the last n events recorded —
// the property the flight-recorder shadow relies on.
func (r *Recorder) Tail(n int) []Event {
	if r == nil {
		return nil
	}
	return r.newest(n)
}

// Metrics computes the registry snapshot: the evicted-event aggregate
// plus a scan over the retained ring. The result is exactly what eager
// per-event folding would have accumulated — eviction moves an event's
// contribution, it never loses it. The snapshot is detached: it does not
// change as further events are recorded.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	m := &Metrics{
		agg:            r.evicted,
		droppedByClass: r.evicted.counts,
		ringLat:        append([]Histogram(nil), r.ringLat...),
		kindNames:      r.kindNames,
		svcNames:       r.svcNames,
	}
	m.agg.vcpuReqs = append([]Histogram(nil), r.evicted.vcpuReqs...)
	copy(m.kindCycles[:], r.cycleSrc())
	r.foldRetained(&m.agg)
	return m
}

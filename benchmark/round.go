package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"veil/internal/obs"
	"veil/internal/snp"
)

// round is one set-up plus one measured window of a workload: the unit a
// run repeats until its time is used up. Every round of a run uses
// the same seed, so its virtual-cycle results must repeat exactly.
type round struct {
	seed   int64
	scale  float64
	traced bool

	start time.Time
	setup time.Duration // boot, seeding, launch, handshakes
	boot  time.Duration // the cvm.Boot / cvm.BootFleet share of setup

	// The measured window.
	machines   []*snp.Machine
	recorders  []*obs.Recorder
	t0         time.Time
	cpu0       time.Duration
	ms0, ms1   runtime.MemStats
	clk0       []snp.Clock
	tr0        []snp.Trace
	mem0       []snp.MemStats
	ev0        []uint64
	drop0      []uint64
	wall, cpu  time.Duration
	probeEvery uint64
	probeTime  time.Duration
	probeRuns  []time.Duration
	memPeak    uint64 // highest in-use memory sampled in the round
	vcyc       uint64
	attr       snp.Attribution
	trace      snp.Trace
	mem        snp.MemStats
	events     uint64
	dropEvents uint64

	// Requests: attempted is the count the workload sets out to make
	// (before beginWindow, which spaces the probes by it); every completed
	// request reports its virtual latency.
	attempted uint64
	requests  uint64
	failed    uint64
	problems  []string
	lat       hist

	// layer holds the workload's per-layer values for this round.
	layer map[string]float64

	// Traced rounds only: host-clock timers by name and the window's CPU
	// profile.
	timers map[string]*hist
	prof   bytes.Buffer
}

func newRound(seed int64, scale float64, traced bool) *round {
	r := &round{seed: seed, scale: scale, traced: traced, layer: make(map[string]float64)}
	if traced {
		r.timers = make(map[string]*hist)
	}
	r.start = time.Now()
	return r
}

// rng returns a generator for one named input stream of the round's seed.
func (r *round) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + stream))
}

// keyReader is a deterministic crypto/rand stand-in for CVM key material.
type keyReader struct{ r *rand.Rand }

func (k keyReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(k.r.Intn(256))
	}
	return len(p), nil
}

// recorder returns a fresh obs recorder in traced rounds and nil (the
// zero-overhead path) otherwise.
func (r *round) recorder() *obs.Recorder {
	if !r.traced {
		return nil
	}
	return obs.NewRecorder(1 << 12)
}

// scaled returns n scaled by the run's -scale, at least 1.
func (r *round) scaled(n int) int {
	v := int(float64(n)*r.scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

func (r *round) bootDone(since time.Time) { r.boot += time.Since(since) }

// beginWindow ends the set-up and starts the measured window over the given
// machines; r.attempted must be set. A full collection first keeps set-up
// garbage out of the window's CPU and GC numbers.
func (r *round) beginWindow(ms ...*snp.Machine) error {
	r.setup = time.Since(r.start)
	r.probeEvery = max(1, r.attempted/probesPerRound)
	r.machines = ms
	r.sampleMem()
	for _, m := range ms {
		r.clk0 = append(r.clk0, m.Clock().Snapshot())
		r.tr0 = append(r.tr0, m.Trace().Snapshot())
		r.mem0 = append(r.mem0, m.MemStats())
		r.recorders = append(r.recorders, m.Recorder())
		r.ev0 = append(r.ev0, m.Recorder().Total())
		r.drop0 = append(r.drop0, m.Recorder().Dropped())
	}
	runtime.GC()
	runtime.ReadMemStats(&r.ms0)
	r.cpu0 = processCPU()
	if r.traced {
		if err := pprof.StartCPUProfile(&r.prof); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
	}
	r.t0 = time.Now()
	r.probe()
	return nil
}

// endWindow closes the window and takes the machine deltas.
func (r *round) endWindow() {
	r.wall = time.Since(r.t0)
	r.cpu = processCPU() - r.cpu0
	r.sampleMem()
	if r.traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&r.ms1)
	for i, m := range r.machines {
		clk := m.Clock()
		r.vcyc += clk.Since(r.clk0[i])
		r.attr.Add(clk.AttributionSince(r.clk0[i]))
		d := m.Trace().Since(r.tr0[i])
		r.trace.VMGExits += d.VMGExits
		r.trace.AutomaticExits += d.AutomaticExits
		r.trace.DomainSwitches += d.DomainSwitches
		r.trace.Interrupts += d.Interrupts
		r.trace.Syscalls += d.Syscalls
		r.trace.EnclaveExits += d.EnclaveExits
		r.trace.AuditRecords += d.AuditRecords
		ms := m.MemStats()
		r.mem.TLBHits += ms.TLBHits - r.mem0[i].TLBHits
		r.mem.TLBMisses += ms.TLBMisses - r.mem0[i].TLBMisses
		r.mem.TLBRMPFlushes += ms.TLBRMPFlushes - r.mem0[i].TLBRMPFlushes
		r.mem.TLBPTInvalidation += ms.TLBPTInvalidation - r.mem0[i].TLBPTInvalidation
		r.mem.SpanReads += ms.SpanReads - r.mem0[i].SpanReads
		r.mem.SpanWrites += ms.SpanWrites - r.mem0[i].SpanWrites
		r.mem.SpanBatchHits += ms.SpanBatchHits - r.mem0[i].SpanBatchHits
		r.events += r.recorders[i].Total() - r.ev0[i]
		r.dropEvents += r.recorders[i].Dropped() - r.drop0[i]
	}
}

// request records one completed request and its virtual latency.
func (r *round) request(vcyc uint64) {
	r.requests++
	r.lat.observe(vcyc)
	if r.probeEvery > 0 && r.requests%r.probeEvery == 0 {
		r.probe()
	}
}

// fail counts one failed request.
func (r *round) fail() { r.failed++ }

// failf counts one failed request or check and keeps its description.
func (r *round) failf(format string, args ...any) {
	r.failed++
	r.problemf(format, args...)
}

// problemf keeps a description of failures counted elsewhere (the first
// few per round).
func (r *round) problemf(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// timing adds one host-clock sample (nanoseconds) to a named timer.
func (r *round) timing(name string, ns uint64) {
	h := r.timers[name]
	if h == nil {
		h = &hist{}
		r.timers[name] = h
	}
	h.observe(ns)
}

// hostNow reads the host clock in traced rounds and returns the zero time
// otherwise; since then adds the elapsed host time to a named timer.
func (r *round) hostNow() time.Time {
	if r.traced {
		return time.Now()
	}
	return time.Time{}
}

func (r *round) since(name string, t time.Time) {
	if r.traced {
		r.timing(name, uint64(time.Since(t)))
	}
}

// perOp divides a window count by the completed requests.
func (r *round) perOp(v uint64) float64 {
	if r.requests == 0 {
		return 0
	}
	return float64(v) / float64(r.requests)
}

// machineLayers fills the per-layer values every workload reports from the
// machines' public counters.
func (r *round) machineLayers() {
	L := r.layer
	for k := 0; k < snp.NumCostKinds; k++ {
		L["vcyc."+snp.CostKind(k).String()+"_per_op"] = r.perOp(r.attr[k])
	}
	lookups := r.mem.TLBHits + r.mem.TLBMisses
	if lookups > 0 {
		L["snp.tlb_hit_ratio"] = float64(r.mem.TLBHits) / float64(lookups)
	}
	L["snp.tlb_misses_per_op"] = r.perOp(r.mem.TLBMisses)
	L["snp.tlb_rmp_flushes_per_op"] = r.perOp(r.mem.TLBRMPFlushes)
	L["snp.tlb_pt_invalidations_per_op"] = r.perOp(r.mem.TLBPTInvalidation)
	L["snp.spans_per_op"] = r.perOp(r.mem.SpanReads + r.mem.SpanWrites)
	L["snp.span_batch_hits_per_op"] = r.perOp(r.mem.SpanBatchHits)
	L["hv.vmgexits_per_op"] = r.perOp(r.trace.VMGExits)
	L["hv.domain_switches_per_op"] = r.perOp(r.trace.DomainSwitches)
	L["hv.automatic_exits_per_op"] = r.perOp(r.trace.AutomaticExits)
	L["hv.interrupts_per_op"] = r.perOp(r.trace.Interrupts)
	L["kernel.syscalls_per_op"] = r.perOp(r.trace.Syscalls)
	L["kernel.audit_records_per_op"] = r.perOp(r.trace.AuditRecords)
	L["obs.events_per_op"] = r.perOp(r.events)
	L["obs.dropped_events"] = float64(r.dropEvents)
	L["cvm.boot_s"] = r.boot.Seconds()
	L["go.gc_cycles"] = float64(r.ms1.NumGC - r.ms0.NumGC)
	L["go.gc_pause_ms"] = float64(r.ms1.PauseTotalNs-r.ms0.PauseTotalNs) / 1e6
	L["go.heap_peak_mb"] = float64(r.ms1.HeapSys) / (1 << 20)
}

// processCPU is the process's user plus system CPU time, collector
// included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleMem records the memory the process holds in use, if it is the
// round's highest so far: everything the Go runtime has mapped minus the
// free pages it retains or has returned. Kernel RSS also counts freed pages
// the background scavenger has not returned yet, which depends on how much
// wall time the window took, so it moved 15% between identical runs.
func (r *round) sampleMem() {
	metrics.Read(memSamples[:])
	total, free, released := memSamples[0].Value.Uint64(), memSamples[1].Value.Uint64(), memSamples[2].Value.Uint64()
	r.memPeak = max(r.memPeak, total-free-released)
}

var memSamples = [3]metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/free:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

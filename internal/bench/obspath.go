package bench

import (
	"runtime"
	"runtime/debug"

	"veil/internal/audit"
	"veil/internal/cvm"
	"veil/internal/obs"
	"veil/internal/sdk"
	"veil/internal/workloads"
)

// The observability-path benchmark: the same enclave workload run on
// identically seeded CVMs in three configurations — fully dark (no
// recorder, no flight recorder, no auditor), tracing (trace ring + flight
// recorder + causal spans), and audited (tracing plus the invariant
// auditor at its default cadence). It guards two promises at once: the
// stack charges no virtual cycles (all three runs finish on the same
// cycle), and switching the auditor on over an already-traced machine
// stays cheap enough to leave always-on (<15% host wall-clock is the CI
// bound recorded in BENCH_obs.json).

// obsMode selects one configuration of the paired runs.
type obsMode int

const (
	obsDark obsMode = iota
	obsTracing
	obsAudited
)

// obsPathReps repetitions per configuration. The overhead estimate is the
// median of per-round paired ratios (see ObsPath), so the count must be
// odd and large enough that a minority of noisy rounds cannot move the
// median.
const obsPathReps = 9

// obsRingCap is the trace-ring capacity for this benchmark. A measured
// run records far more events than the ring holds, so the timed window
// includes folding evicted events into the aggregate; metrics survive
// eviction, so the latency digests still cover the whole run.
const obsRingCap = 1 << 13

// ObsPathResult captures the three runs. The cycle counts are
// deterministic; the host-seconds fields (and the derived percentages)
// are the only host-time values — thread CPU seconds where available
// (see threadSeconds), so co-tenant load does not masquerade as overhead.
type ObsPathResult struct {
	Workload   string
	Iterations int
	// Virtual cycles per configuration; all three must agree.
	CyclesDark    uint64
	CyclesTracing uint64
	CyclesAudited uint64
	Deterministic bool
	// Host wall-clock per configuration.
	HostSecondsDark    float64
	HostSecondsTracing float64
	HostSecondsAudited float64
	// TracingOverheadPct is tracing vs dark: the opt-in -trace price.
	TracingOverheadPct float64
	// AuditorOverheadPct is audited vs tracing: the marginal cost of the
	// always-on invariant auditor (<15% is the committed bound).
	AuditorOverheadPct float64
	// Audited-side stack statistics.
	EventsRecorded uint64 // trace-ring events seen (retained + evicted)
	RingCapacity   int    // trace-ring capacity
	VCPUs          int    // VCPUs the recorder saw
	FlightRetained int
	FlightDropped  uint64
	// FlightDroppedByClass breaks the post-mortem-tail drops down per
	// event class (zero-drop classes omitted).
	FlightDroppedByClass map[string]uint64
	AuditFastRuns        uint64
	AuditSweeps          uint64
	AuditViolations      uint64
	// Latency digests from the audited run, in virtual cycles: root-span
	// (per-request) latency, syscall span latency, and per-service
	// dispatch latency keyed by service name.
	RequestLat LatSummary
	SyscallLat LatSummary
	ServiceLat map[string]LatSummary
}

type obsPathSide struct {
	cycles        uint64
	seconds       float64
	events        uint64
	vcpus         int
	flightLen     int
	flightDropped uint64
	flightByClass map[string]uint64
	fastRuns      uint64
	sweeps        uint64
	violations    uint64
	requestLat    LatSummary
	syscallLat    LatSummary
	serviceLat    map[string]LatSummary
}

// obsPathRun boots one CVM for the benchmark and runs the workload in an
// enclave. obsDark strips every observability layer the cvm harness would
// otherwise attach.
func obsPathRun(w workloads.Workload, seed int64, mode obsMode) (obsPathSide, error) {
	opts := cvm.Options{
		MemBytes: benchMem,
		VCPUs:    1,
		Veil:     true,
		LogPages: 2048,
		Rand:     cvm.SeededRand(seed),
		NoFlight: mode == obsDark,
	}
	if mode != obsDark {
		opts.Recorder = obs.NewRecorder(obsRingCap)
	}
	c, err := cvm.Boot(opts)
	if err != nil {
		return obsPathSide{}, err
	}
	// The side struct copies everything it needs out of the machine and
	// recorder before returning, so the boot's backing memory can go
	// straight back to the pool for the next repetition.
	defer releaseCVM(c)
	var a *audit.Auditor
	if mode == obsAudited {
		a = audit.Attach(c.M, audit.Config{})
		opts.Recorder.AddAuxCounters(a.Counters)
	}
	if err := w.Setup(c); err != nil {
		return obsPathSide{}, err
	}
	prog := w.Build(c)
	host := c.K.Spawn(w.Name + "-host")

	// The measured window runs pinned to one OS thread on the thread CPU
	// clock, with the collector paused: GC worker threads otherwise count
	// toward process CPU time and a collection landing inside one side's
	// window masquerades as tracing (or auditor) overhead. The boot-sweep
	// GC debt is drained first so pausing is cheap, and the collector is
	// restored before the run's teardown allocations.
	runtime.GC()
	runtime.LockOSThread()
	gcPct := debug.SetGCPercent(-1)
	start := threadSeconds()
	app, err := sdk.LaunchEnclave(c, host, prog, sdk.EnclaveConfig{RegionPages: w.RegionPages})
	failed := err != nil
	if !failed {
		rc, eerr := app.Enter(w.Args...)
		err, failed = eerr, eerr != nil || rc != 0
	}
	if a != nil && !failed {
		a.Sweep()
	}
	seconds := threadSeconds() - start
	debug.SetGCPercent(gcPct)
	runtime.UnlockOSThread()
	if failed {
		return obsPathSide{}, err
	}
	side := obsPathSide{
		cycles:  c.M.Clock().Cycles(),
		seconds: seconds,
	}
	if mode != obsDark {
		// Everything below runs outside the timed window (seconds is
		// already captured): Metrics() scans the retained ring.
		side.events = opts.Recorder.Total()
		side.flightLen = c.M.FlightTailLen()
		side.flightDropped = c.M.FlightDropped()
		byClass := c.M.FlightDroppedByClass()
		for cl := obs.Class(0); cl < obs.NumClasses; cl++ {
			if byClass[cl] > 0 {
				if side.flightByClass == nil {
					side.flightByClass = make(map[string]uint64)
				}
				side.flightByClass[cl.String()] = byClass[cl]
			}
		}
		met := opts.Recorder.Metrics()
		side.vcpus = met.VCPUs()
		side.requestLat = latSummary(met.RequestHistAll())
		side.syscallLat = latSummary(met.SpanHist(obs.ClassSyscall))
		for s := 0; s < met.NumServices(); s++ {
			h := met.ServiceHist(s)
			if h == nil || h.Count() == 0 {
				continue
			}
			if side.serviceLat == nil {
				side.serviceLat = make(map[string]LatSummary)
			}
			side.serviceLat[met.ServiceName(s)] = latSummary(h)
		}
	}
	if a != nil {
		side.fastRuns = a.FastRuns()
		side.sweeps = a.SweepRuns()
		side.violations = a.Violations()
	}
	return side, nil
}

func pct(base, with float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (with - base) / base
}

// ObsPath runs the three-way benchmark on the SQLite workload (a dense
// syscall + enclave-exit mix) with the given insert count.
func ObsPath(iters int) (ObsPathResult, error) {
	if iters <= 0 {
		iters = 1000
	}
	w := workloads.SQLite(iters)
	// Discarded warm-up pass: the first run pays one-time process costs
	// (allocator growth, code paths faulting in) that would otherwise land
	// entirely on the dark side of the comparison.
	if _, err := obsPathRun(w, 4242, obsDark); err != nil {
		return ObsPathResult{}, err
	}
	// obsPathReps rounds, each running dark→tracing→audited back to back so
	// all three configurations see near-identical host conditions. The
	// overhead estimate is the MEDIAN of the per-round paired ratios: the
	// pairing cancels slow drift (thermal, co-tenant load ramps), and the
	// median throws away rounds where a burst landed inside one window —
	// much tighter than a min-vs-min ratio, whose two minima can come from
	// different rounds and whose error compounds. The virtual cycles are
	// identical across rounds by construction.
	var rounds [3][]obsPathSide
	for i := 0; i < obsPathReps; i++ {
		for _, mode := range []obsMode{obsDark, obsTracing, obsAudited} {
			s, err := obsPathRun(w, 4242, mode)
			if err != nil {
				return ObsPathResult{}, err
			}
			rounds[mode] = append(rounds[mode], s)
		}
	}
	tracingPct := make([]float64, obsPathReps)
	auditorPct := make([]float64, obsPathReps)
	secs := [3][]float64{}
	for i := 0; i < obsPathReps; i++ {
		tracingPct[i] = pct(rounds[obsDark][i].seconds, rounds[obsTracing][i].seconds)
		auditorPct[i] = pct(rounds[obsTracing][i].seconds, rounds[obsAudited][i].seconds)
		for m := 0; m < 3; m++ {
			secs[m] = append(secs[m], rounds[m][i].seconds)
		}
	}
	dark, tracing, audited := rounds[obsDark][0], rounds[obsTracing][0], rounds[obsAudited][0]
	return ObsPathResult{
		Workload:             w.Name,
		Iterations:           iters,
		CyclesDark:           dark.cycles,
		CyclesTracing:        tracing.cycles,
		CyclesAudited:        audited.cycles,
		Deterministic:        dark.cycles == tracing.cycles && tracing.cycles == audited.cycles,
		HostSecondsDark:      median(secs[obsDark]),
		HostSecondsTracing:   median(secs[obsTracing]),
		HostSecondsAudited:   median(secs[obsAudited]),
		TracingOverheadPct:   median(tracingPct),
		AuditorOverheadPct:   median(auditorPct),
		EventsRecorded:       audited.events,
		RingCapacity:         obsRingCap,
		VCPUs:                audited.vcpus,
		FlightRetained:       audited.flightLen,
		FlightDropped:        audited.flightDropped,
		FlightDroppedByClass: audited.flightByClass,
		AuditFastRuns:        audited.fastRuns,
		AuditSweeps:          audited.sweeps,
		AuditViolations:      audited.violations,
		RequestLat:           audited.requestLat,
		SyscallLat:           audited.syscallLat,
		ServiceLat:           audited.serviceLat,
	}, nil
}

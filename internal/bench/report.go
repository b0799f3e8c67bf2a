package bench

import (
	"fmt"
	"io"
	"sort"

	"veil/internal/baselines"
	"veil/internal/snp"
)

// Report functions print each experiment in the paper's row/series shape.

// ReportAttribution prints a per-CostKind cycle breakdown, largest share
// first. Zero attributions (e.g. rows built without a recorder) print
// nothing, so reports stay clean in tests.
func ReportAttribution(w io.Writer, label string, a snp.Attribution) {
	total := a.Total()
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "  %s — cycle attribution (%d cycles total):\n", label, total)
	type row struct {
		kind   snp.CostKind
		cycles uint64
	}
	var rows []row
	for i, v := range a {
		if v > 0 {
			rows = append(rows, row{snp.CostKind(i), v})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].cycles > rows[j].cycles })
	for _, r := range rows {
		fmt.Fprintf(w, "    %-15s %14d  %5.1f%%\n",
			r.kind, r.cycles, 100*float64(r.cycles)/float64(total))
	}
}

// ReportFig4 prints the Fig. 4 series.
func ReportFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintf(w, "Fig. 4 — Cost of redirecting popular system calls from a VeilS-Enc enclave (Table 3 parameters)\n")
	fmt.Fprintf(w, "%-8s  %14s  %14s  %9s\n", "syscall", "native(cyc)", "enclave(cyc)", "overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s  %14d  %14d  %8.1fx\n", r.Syscall, r.NativeCycles, r.EnclaveCycles, r.Ratio)
	}
}

// ReportFig5 prints the Fig. 5 stacked bars.
func ReportFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "Fig. 5 — Overhead while shielding real-world programs with VeilS-Enc (Table 4 settings)\n")
	fmt.Fprintf(w, "%-10s  %9s  %16s  %13s  %12s\n", "program", "overhead", "syscall-redirect", "enclave-exit", "exits/sec")
	var attr snp.Attribution
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s  %8.1f%%  %15.1f%%  %12.1f%%  %12.1f\n",
			r.Program, r.OverheadPct, r.RedirectPct, r.ExitPct, r.ExitsPerSecond)
		attr.Add(r.Attr)
	}
	ReportAttribution(w, "enclave runs", attr)
}

// ReportFig6 prints the Fig. 6 bar pairs.
func ReportFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintf(w, "Fig. 6 — Audit overhead: Kaudit (in-memory) vs VeilS-Log (Table 5 settings)\n")
	fmt.Fprintf(w, "%-18s  %10s  %10s  %12s\n", "program", "kaudit", "veils-log", "logs/sec")
	var attr snp.Attribution
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s  %9.1f%%  %9.1f%%  %12.1f\n",
			r.Program, r.KauditPct, r.VeilSLogPct, r.LogsPerSecond)
		attr.Add(r.Attr)
	}
	ReportAttribution(w, "veils-log runs", attr)
}

// ReportBoot prints the §9.1 initialization measurement.
func ReportBoot(w io.Writer, r BootResult) {
	fmt.Fprintf(w, "§9.1 Initialization time (guest: %d MiB)\n", r.MemBytes>>20)
	fmt.Fprintf(w, "  native boot work: %.3f s (%d cycles)\n", r.NativeSeconds, r.NativeCycles)
	fmt.Fprintf(w, "  veil boot work:   %.3f s (%d cycles)\n", r.VeilSeconds, r.VeilCycles)
	fmt.Fprintf(w, "  veil delta:       +%.3f s (+%.1f%% of reference CVM boot)\n", r.DeltaSeconds, r.DeltaPct)
	fmt.Fprintf(w, "  RMPADJUST sweep share of delta: %.0f%% (paper: >70%%)\n", 100*r.SweepShareOfDelta)
}

// ReportSwitch prints the §9.1 domain-switch measurement.
func ReportSwitch(w io.Writer, r SwitchResult) {
	fmt.Fprintf(w, "§9.1 Domain switch cost (%d OS↔VeilMon switches)\n", r.Iterations)
	fmt.Fprintf(w, "  per switch (VMGEXIT+VMENTER): %d cycles (paper: 7135)\n", r.CyclesPerSwitch)
	fmt.Fprintf(w, "  full round trip incl. IDCB:   %d cycles\n", r.CyclesPerRoundTrip)
	fmt.Fprintf(w, "  plain VMCALL (non-SNP VM):    %d cycles (paper: ~1100)\n", r.CyclesPerPlainVMCAL)
}

// ReportBackground prints the §9.1 background-impact rows.
func ReportBackground(w io.Writer, rows []BackgroundRow) {
	fmt.Fprintf(w, "§9.1 Background system impact (Veil installed, services unused; paper: <2%%)\n")
	fmt.Fprintf(w, "%-10s  %14s  %14s  %9s\n", "workload", "native(cyc)", "veil(cyc)", "overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s  %14d  %14d  %8.2f%%\n", r.Workload, r.NativeCycles, r.VeilCycles, r.OverheadPct)
	}
}

// ReportCS1 prints the module load/unload case study.
func ReportCS1(w io.Writer, r CS1Result) {
	fmt.Fprintf(w, "CS1 — Secure module load/unload (module %d B, installed %d B, %d reps)\n",
		r.ModuleBytes, r.InstalledBytes, r.Iterations)
	fmt.Fprintf(w, "  load:   native %d, veil %d (+%d cycles, +%.1f%%; paper: +55k, +5.7%%)\n",
		r.NativeLoadCycles, r.VeilLoadCycles, r.LoadDeltaCycles, r.LoadPct)
	fmt.Fprintf(w, "  unload: native %d, veil %d (+%d cycles, +%.1f%%; paper: +55k, +4.2%%)\n",
		r.NativeUnloadCycles, r.VeilUnloadCycles, r.UnloadDeltaCycles, r.UnloadPct)
}

// ReportMemPath prints the memory-path microbenchmark: the TLB refactor's
// guard workload, with the hit/miss/invalidation counters that veil-sim
// also exports as aux metrics.
func ReportMemPath(w io.Writer, r MemPathResult) {
	fmt.Fprintf(w, "Memory path — software TLB workload (%d pages, %d iterations)\n", r.Pages, r.Iterations)
	fmt.Fprintf(w, "  accesses: %d (%d bytes), %d virtual cycles, %.3f s host\n",
		r.Accesses, r.BytesTouched, r.Cycles, r.HostSeconds)
	total := r.Mem.TLBHits + r.Mem.TLBMisses
	hitPct := 0.0
	if total > 0 {
		hitPct = 100 * float64(r.Mem.TLBHits) / float64(total)
	}
	fmt.Fprintf(w, "  tlb: %d hits / %d misses (%.1f%% hit rate)\n", r.Mem.TLBHits, r.Mem.TLBMisses, hitPct)
	fmt.Fprintf(w, "  invalidations: %d full flushes, %d rmp-epoch, %d pt-page\n",
		r.Mem.TLBFlushes, r.Mem.TLBRMPFlushes, r.Mem.TLBPTInvalidation)
	fmt.Fprintf(w, "  spans: %d reads, %d writes (zero-copy page windows)\n", r.Mem.SpanReads, r.Mem.SpanWrites)
}

// ReportMonitors prints the §9.1 monitor cost-model comparison.
func ReportMonitors(w io.Writer) {
	fmt.Fprintf(w, "§9.1 Runtime monitor cost analysis (C_ds × N_ds model)\n")
	fmt.Fprintf(w, "%-20s  %10s  %10s  %10s  %5s  %5s\n", "monitor", "C_ds(cyc)", "N_ds(/s)", "background", "CVM", "conf")
	for _, m := range baselines.Models() {
		fmt.Fprintf(w, "%-20s  %10d  %10d  %9.2f%%  %5v  %5v\n",
			m.Name, m.SwitchCycles, m.InvocationsPerSec, m.BackgroundOverheadPct(),
			m.CVMCompatible, m.Confidentiality)
	}
	fmt.Fprintf(w, "  crossover: a %d-cycle switch reaches 2%%%% background at %.0f invocations/s\n",
		uint64(snp.CyclesDomainSwitch), baselines.CrossoverInvocationsPerSec(snp.CyclesDomainSwitch, 2))
}

// ReportBatch prints the §9.1-extension batched-invocation amortization
// curve.
func ReportBatch(w io.Writer, r BatchResult) {
	fmt.Fprintf(w, "§9.1 ext — Batched service invocation (%d VeilS-Log appends per configuration)\n", r.SyncCalls)
	fmt.Fprintf(w, "  sync baseline: %d cycles/call (%d switches total)\n", r.SyncPerCall, r.SyncSwitches)
	fmt.Fprintf(w, "%-6s  %12s  %14s  %10s  %8s  %12s\n",
		"batch", "cycles/call", "total(cyc)", "switches", "speedup", "model floor")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6d  %12d  %14d  %10d  %7.2fx  %12d\n",
			row.BatchSize, row.CyclesPerCall, row.Cycles, row.Switches, row.Speedup, row.ModelPerCall)
	}
	fmt.Fprintf(w, "  results identical to sync path: %v; first batch size beating sync: %d\n",
		r.ResultsEqual, r.CrossoverSize)
}

// ReportSMP prints the SMP poll-vs-interrupt completion comparison.
func ReportSMP(w io.Writer, r SMPResult) {
	fmt.Fprintf(w, "SMP scheduling — %d VCPUs × %d batches × %d calls, poll (%d spins/slice) vs interrupt completions\n",
		r.VCPUs, r.Batches, r.BatchSize, r.PollSpins)
	fmt.Fprintf(w, "%-22s  %12s  %12s  %9s  %10s  %10s\n",
		"workload", "poll cyc/call", "intr cyc/call", "savings", "jain(poll)", "jain(intr)")
	row := func(name string, c SMPCompare) {
		fmt.Fprintf(w, "%-22s  %13d  %13d  %8.1f%%  %10.4f  %10.4f\n",
			name, c.Poll.CyclesPerCall, c.Intr.CyclesPerCall, c.IntrSavingsPct,
			c.Poll.FairnessJain, c.Intr.FairnessJain)
	}
	row(fmt.Sprintf("busy (latency %d)", r.BusyLatency), r.Busy)
	row(fmt.Sprintf("idle (latency %d)", r.IdleLatency), r.Idle)
	row("single VCPU (idle)", r.SingleVCPU)
	fmt.Fprintf(w, "  idle regime: intr mode %d wakeups over %d rounds; poll mode burned %d wait slices\n",
		r.Idle.Intr.Wakeups, r.Idle.Intr.Rounds, pollWaitSlices(r.Idle.Poll))
	im := r.Idle.Intr
	fmt.Fprintf(w, "  idle intr telemetry: wake latency p50=%d p99=%d cyc (n=%d); drain wait p50=%d p99=%d rounds; runq mean=%.2f; slice occupancy=%.1f%%\n",
		im.WakeLat.P50, im.WakeLat.P99, im.WakeLat.Count,
		im.DrainWaitRounds.P50, im.DrainWaitRounds.P99, im.RunQueueMean, im.SliceOccupancyPct)
	fmt.Fprintf(w, "  idle intr per-VCPU ring latency (cycles):\n")
	for _, v := range im.PerVCPU {
		fmt.Fprintf(w, "    vcpu %d: n=%d p50=%d p90=%d p99=%d\n",
			v.VCPU, v.RingLat.Count, v.RingLat.P50, v.RingLat.P90, v.RingLat.P99)
	}
}

func pollWaitSlices(m SMPModeResult) uint64 {
	var n uint64
	for _, v := range m.PerVCPU {
		n += v.WaitSlices
	}
	return n
}

// ReportObsPath prints the observability-stack overhead comparison.
func ReportObsPath(w io.Writer, r ObsPathResult) {
	fmt.Fprintf(w, "Observability path — %s ×%d: dark vs tracing vs tracing+auditor\n",
		r.Workload, r.Iterations)
	fmt.Fprintf(w, "  virtual cycles: dark=%d tracing=%d audited=%d deterministic=%v\n",
		r.CyclesDark, r.CyclesTracing, r.CyclesAudited, r.Deterministic)
	fmt.Fprintf(w, "  host time: dark=%.3fs tracing=%.3fs audited=%.3fs\n",
		r.HostSecondsDark, r.HostSecondsTracing, r.HostSecondsAudited)
	fmt.Fprintf(w, "  tracing overhead vs dark: %.1f%%; auditor overhead vs tracing: %.1f%% (bound: <15%%)\n",
		r.TracingOverheadPct, r.AuditorOverheadPct)
	fmt.Fprintf(w, "  observed: %d events across %d shard(s) (ring cap %d/shard), flight tail %d retained/%d beyond tail\n",
		r.EventsRecorded, r.Shards, r.RingCapacity, r.FlightRetained, r.FlightDropped)
	fmt.Fprintf(w, "  auditor: %d fast passes, %d sweeps, %d violations\n",
		r.AuditFastRuns, r.AuditSweeps, r.AuditViolations)
	if r.RequestLat.Count > 0 {
		fmt.Fprintf(w, "  request latency: n=%d p50=%d p90=%d p99=%d cyc; syscalls: n=%d p50=%d p99=%d cyc\n",
			r.RequestLat.Count, r.RequestLat.P50, r.RequestLat.P90, r.RequestLat.P99,
			r.SyscallLat.Count, r.SyscallLat.P50, r.SyscallLat.P99)
	}
	if len(r.ServiceLat) > 0 {
		names := make([]string, 0, len(r.ServiceLat))
		for n := range r.ServiceLat {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			l := r.ServiceLat[n]
			fmt.Fprintf(w, "  service %-6s dispatch: n=%d p50=%d p90=%d p99=%d cyc\n",
				n, l.Count, l.P50, l.P90, l.P99)
		}
	}
}

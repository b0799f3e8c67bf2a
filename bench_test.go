package veil

// One benchmark per table/figure of the paper's evaluation (§9). Each
// reports the simulator's deterministic metrics through b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the paper's numbers alongside
// the harness's own wall-clock cost. cmd/veil-bench prints the same
// experiments as full tables.

import (
	"testing"

	"veil/internal/baselines"
	"veil/internal/bench"
	"veil/internal/snp"
)

// BenchmarkBootInit is the §9.1 initialization-time experiment (scaled to a
// 256 MiB guest by default; cmd/veil-bench -experiment boot -mem 2048 runs
// the paper's full 2 GiB testbed).
func BenchmarkBootInit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.BootInit(256 << 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DeltaSeconds*4*2, "sim-boot-delta-s/2GiB") // linear in pages
		b.ReportMetric(100*r.SweepShareOfDelta, "sweep-share-%")
	}
}

// BenchmarkDomainSwitch is the §9.1 switch-cost experiment (paper: 7135
// cycles per switch, ~1100 for a plain VMCALL).
func BenchmarkDomainSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.DomainSwitchCost(10000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.CyclesPerSwitch), "cycles/switch")
		b.ReportMetric(float64(r.CyclesPerPlainVMCAL), "cycles/vmcall")
	}
}

// BenchmarkBackgroundImpact is the §9.1 background measurement (paper:
// <2% on SPEC-like, memcached and NGINX with services unused).
func BenchmarkBackgroundImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Background()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.OverheadPct, r.Workload+"-%")
		}
	}
}

// BenchmarkModuleLoad is CS1 (paper: +55k cycles, +5.7% load / +4.2%
// unload for a 4728-byte module installed into 24 KiB).
func BenchmarkModuleLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.CS1Module(100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.LoadDeltaCycles), "load-delta-cycles")
		b.ReportMetric(r.LoadPct, "load-%")
		b.ReportMetric(r.UnloadPct, "unload-%")
	}
}

// BenchmarkFig4Syscalls regenerates Fig. 4 (enclave syscall redirection,
// Table 3 parameters; paper band: 3.3–7.1×).
func BenchmarkFig4Syscalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Fig4Attr(2000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Ratio, r.Syscall+"-x")
		}
	}
}

// BenchmarkFig5Programs regenerates Fig. 5 (shielded real-world programs,
// Table 4 settings; paper band: 4.9–63.9%).
func BenchmarkFig5Programs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.OverheadPct, r.Program+"-%")
		}
	}
}

// BenchmarkFig6Audit regenerates Fig. 6 (Kaudit vs VeilS-Log, Table 5
// settings; paper bands: 0.3–8.7% vs 1.4–18.7%).
func BenchmarkFig6Audit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.VeilSLogPct, r.Program+"-veil-%")
			b.ReportMetric(r.KauditPct, r.Program+"-kaudit-%")
		}
	}
}

// BenchmarkMemPath is the fixed page-table-heavy workload guarding the
// memory-path host speed (see internal/bench/mempath.go and docs/MEMORY.md).
// The interesting output is ns/op; the deterministic virtual-cycle total is
// reported alongside to show the refactor never moved simulated results.
func BenchmarkMemPath(b *testing.B) {
	mp, err := bench.NewMemPathBench()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := mp.Run(200)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Cycles), "sim-cycles")
		b.ReportMetric(float64(r.Accesses), "accesses")
	}
}

// BenchmarkMonitorCostModel is the §9.1 runtime-monitor comparison
// (C_ds × N_ds) across the monitor designs of §2.
func BenchmarkMonitorCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range baselines.Models() {
			b.ReportMetric(m.BackgroundOverheadPct(), m.Name+"-%")
		}
		b.ReportMetric(baselines.CrossoverInvocationsPerSec(snp.CyclesDomainSwitch, 2), "veil-2pct-crossover-invocations")
	}
}

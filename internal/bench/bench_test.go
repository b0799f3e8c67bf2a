package bench

import (
	"bytes"
	"strings"
	"testing"

	"veil/internal/snp"
	"veil/internal/workloads"
)

// These tests assert the *shape* claims of the paper's evaluation on
// scaled-down runs: who wins, roughly by what factor, and which component
// dominates. EXPERIMENTS.md records the full-scale numbers.

func TestDomainSwitchMatchesPaper(t *testing.T) {
	r, err := DomainSwitchCost(2000)
	if err != nil {
		t.Fatal(err)
	}
	if r.CyclesPerSwitch != snp.CyclesDomainSwitch {
		t.Fatalf("per-switch = %d, want %d", r.CyclesPerSwitch, snp.CyclesDomainSwitch)
	}
	if r.CyclesPerPlainVMCAL != snp.CyclesVMCALL {
		t.Fatalf("VMCALL = %d, want %d", r.CyclesPerPlainVMCAL, snp.CyclesVMCALL)
	}
	// The §9.1 comparison: a Veil switch is ~6.5× a plain VM exit.
	ratio := float64(r.CyclesPerSwitch) / float64(r.CyclesPerPlainVMCAL)
	if ratio < 5 || ratio > 8 {
		t.Fatalf("switch/vmcall ratio = %.1f, want ≈6.5", ratio)
	}
}

func TestFig4RatiosInPaperBand(t *testing.T) {
	rows, _, err := Fig4Attr(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("Fig4 rows = %d, want 7", len(rows))
	}
	for _, r := range rows {
		// Paper band: 3.3–7.1×; allow modelling slack at both ends.
		if r.Ratio < 2.5 || r.Ratio > 9 {
			t.Errorf("%s ratio = %.1f×, outside the paper's shape band", r.Syscall, r.Ratio)
		}
		if r.EnclaveCycles < r.NativeCycles+snp.CyclesDomainSwitch {
			t.Errorf("%s enclave cost %d misses the mandatory switch pair", r.Syscall, r.EnclaveCycles)
		}
	}
}

func TestBackgroundImpactNegligible(t *testing.T) {
	rows, err := Background()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OverheadPct > 2.0 {
			t.Errorf("%s background overhead %.2f%%, paper says <2%%", r.Workload, r.OverheadPct)
		}
	}
}

func TestCS1DeltaNearPaper(t *testing.T) {
	r, err := CS1Module(20)
	if err != nil {
		t.Fatal(err)
	}
	if r.InstalledBytes != 24576 {
		t.Fatalf("installed size = %d, want 24 KiB", r.InstalledBytes)
	}
	// Paper: +55k cycles at load (+5.7%).
	if r.LoadDeltaCycles < 40_000 || r.LoadDeltaCycles > 80_000 {
		t.Fatalf("load delta = %d cycles, want ≈55k", r.LoadDeltaCycles)
	}
	if r.LoadPct < 3 || r.LoadPct > 9 {
		t.Fatalf("load overhead = %.1f%%, want ≈5.7%%", r.LoadPct)
	}
	if r.UnloadDeltaCycles == 0 {
		t.Fatal("unload should cost something")
	}
}

// scaledFig5 runs Fig. 5's comparison on small workload instances.
func scaledFig5(t *testing.T, w workloads.Workload) (base, enc Measurement) {
	t.Helper()
	base, err := Run(w, ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	enc, err = Run(w, ModeEnclave)
	if err != nil {
		t.Fatal(err)
	}
	return base, enc
}

func TestFig5ShapeHighExitRateHurtsMore(t *testing.T) {
	gzipB, gzipE := scaledFig5(t, workloads.GZip(1<<20))
	sqlB, sqlE := scaledFig5(t, workloads.SQLite(1500))

	gzipOv := Overhead(gzipB, gzipE)
	sqlOv := Overhead(sqlB, sqlE)
	// The paper's central Fig. 5 claim: overhead tracks exit rate; SQLite
	// (highest rate) far exceeds GZip (lowest rate).
	if sqlOv < 3*gzipOv {
		t.Fatalf("sqlite %.1f%% vs gzip %.1f%%: expected ≥3× separation", sqlOv, gzipOv)
	}
	if gzipOv <= 0 || gzipOv > 20 {
		t.Fatalf("gzip overhead %.1f%% outside low band", gzipOv)
	}
	if sqlOv < 30 || sqlOv > 90 {
		t.Fatalf("sqlite overhead %.1f%% outside high band", sqlOv)
	}
	gzipRate := float64(gzipE.EnclaveExits) / gzipE.WallSeconds
	sqlRate := float64(sqlE.EnclaveExits) / sqlE.WallSeconds
	if sqlRate <= gzipRate {
		t.Fatalf("exit rates not ordered: sqlite %.0f/s vs gzip %.0f/s", sqlRate, gzipRate)
	}
}

func TestFig6ShapeVeilSLogCostsMoreThanKaudit(t *testing.T) {
	w := workloads.Memcached(800)
	base, err := Run(w, ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	ka, err := Run(w, ModeKaudit)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := Run(w, ModeVeilLog)
	if err != nil {
		t.Fatal(err)
	}
	kaOv, vlOv := Overhead(base, ka), Overhead(base, vl)
	if vlOv <= kaOv {
		t.Fatalf("VeilS-Log %.1f%% should exceed Kaudit %.1f%%", vlOv, kaOv)
	}
	// "This performance gap is not very high" (§9.2): within ~4×.
	if vlOv > 5*kaOv+2 {
		t.Fatalf("gap too large: %.1f%% vs %.1f%%", vlOv, kaOv)
	}
	if ka.AuditRecords != vl.AuditRecords {
		t.Fatalf("record counts differ: %d vs %d", ka.AuditRecords, vl.AuditRecords)
	}
	if vl.AuditRecords == 0 {
		t.Fatal("no audit records produced")
	}
}

func TestRunExitCodeSurfaceed(t *testing.T) {
	w := workloads.SPECLike()
	m, err := Run(w, ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitCode != 0 || m.Cycles == 0 || m.Syscalls == 0 {
		t.Fatalf("measurement: %+v", m)
	}
}

func TestReportsRender(t *testing.T) {
	var buf bytes.Buffer
	ReportFig4(&buf, []Fig4Row{{Syscall: "open", NativeCycles: 100, EnclaveCycles: 500, Ratio: 5}})
	ReportFig5(&buf, []Fig5Row{{Program: "gzip", OverheadPct: 5}})
	ReportFig6(&buf, []Fig6Row{{Program: "nginx", KauditPct: 8, VeilSLogPct: 18}})
	ReportSwitch(&buf, SwitchResult{Iterations: 10, CyclesPerSwitch: 7135, CyclesPerPlainVMCAL: 1100})
	ReportBackground(&buf, []BackgroundRow{{Workload: "spec-like"}})
	ReportCS1(&buf, CS1Result{Iterations: 1})
	ReportBoot(&buf, BootResult{MemBytes: 1 << 30})
	ReportMonitors(&buf)
	out := buf.String()
	for _, want := range []string{"Fig. 4", "Fig. 5", "Fig. 6", "7135", "nested-kernel", "veilmon"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q", want)
		}
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeNative: "native", ModeVeilIdle: "veil-idle", ModeKaudit: "kaudit",
		ModeVeilLog: "veils-log", ModeEnclave: "enclave",
	} {
		if m.String() != want {
			t.Fatalf("mode %d = %q", m, m.String())
		}
	}
}

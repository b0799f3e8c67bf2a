// Package bench is the experiment harness: one generator per table and
// figure of the paper's evaluation (§9), printing the same rows/series the
// paper reports. The cmd/veil-bench binary and the repository's
// bench_test.go drive these.
package bench

import (
	"fmt"
	"sync"

	"veil/internal/audit"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/obs"
	"veil/internal/sdk"
	"veil/internal/snp"
	"veil/internal/workloads"
)

// benchMem is the machine size used for workload benches (small enough to
// sweep quickly, large enough for every workload).
const benchMem = 64 << 20

// Measurement captures one workload run.
type Measurement struct {
	Workload     string
	Cycles       uint64
	WallSeconds  float64
	Syscalls     uint64
	EnclaveExits uint64
	AuditRecords uint64
	Switches     uint64
	SwitchCycles uint64
	CopyCycles   uint64
	MarshalCalls uint64
	ExitCode     int
	// Attr decomposes Cycles per CostKind, sourced from the obs metrics
	// registry of the recorder every bench CVM boots with.
	Attr snp.Attribution
}

// Mode selects how a workload runs.
type Mode int

const (
	// ModeNative: native CVM (VMPL0 kernel), no auditing. The baseline.
	ModeNative Mode = iota
	// ModeVeilIdle: Veil CVM, services installed but unused (§9.1
	// background measurement).
	ModeVeilIdle
	// ModeKaudit: native CVM with the in-memory kaudit ruleset (Fig. 6
	// baseline).
	ModeKaudit
	// ModeVeilLog: Veil CVM with the same ruleset routed to VeilS-Log.
	ModeVeilLog
	// ModeEnclave: Veil CVM with the program shielded by VeilS-Enc
	// (Fig. 5).
	ModeEnclave
)

func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeVeilIdle:
		return "veil-idle"
	case ModeKaudit:
		return "kaudit"
	case ModeVeilLog:
		return "veils-log"
	case ModeEnclave:
		return "enclave"
	}
	return "mode(?)"
}

// benchRingCap keeps bench recorders small: the harness reads only the
// metrics registry (counters + attribution), which survives ring eviction.
const benchRingCap = 1 << 12

// auditing, when enabled with SetAuditing, attaches the invariant auditor
// to every CVM bootFor creates. The experiments themselves are unaffected:
// the auditor charges no virtual cycles, so fig4/fig5 stay byte-identical
// to their goldens — which is exactly the CI claim: the clean evaluation
// workloads run under continuous invariant checking without a violation.
var (
	auditMu         sync.Mutex // guards the pair below (experiments may run on -j workers)
	auditing        bool
	benchedAuditors []*audit.Auditor
)

// SetAuditing toggles auditor attachment for subsequently booted CVMs and
// clears any previously collected auditors.
func SetAuditing(on bool) {
	auditMu.Lock()
	defer auditMu.Unlock()
	auditing = on
	benchedAuditors = nil
}

// AuditViolations forces a final full sweep on every auditor attached since
// SetAuditing and returns the attached-CVM count and total violations.
func AuditViolations() (cvms int, violations uint64) {
	auditMu.Lock()
	defer auditMu.Unlock()
	for _, a := range benchedAuditors {
		a.Sweep()
		violations += a.Violations()
	}
	return len(benchedAuditors), violations
}

// bootFor boots the right CVM for a mode. Every bench CVM carries an obs
// recorder so reports can decompose cycles per CostKind from the metrics
// registry rather than ad-hoc counters.
func bootFor(mode Mode, seed int64) (*cvm.CVM, error) {
	opts := cvm.Options{
		MemBytes: benchMem,
		VCPUs:    1,
		LogPages: 2048, // 8 MiB store: enough for every bench run
		Rand:     cvm.SeededRand(seed),
		Recorder: obs.NewRecorder(benchRingCap),
	}
	switch mode {
	case ModeNative, ModeKaudit:
		opts.Veil = false
	default:
		opts.Veil = true
	}
	if mode == ModeKaudit || mode == ModeVeilLog {
		opts.AuditRules = kernel.DefaultRuleset()
	}
	c, err := cvm.Boot(opts)
	if err != nil {
		return nil, err
	}
	auditBoot(c)
	return c, nil
}

// auditBoot attaches the invariant auditor to a freshly booted CVM when
// -audit is on (also used by the fleet experiment, whose machines come
// from cvm.BootFleet rather than bootFor).
func auditBoot(c *cvm.CVM) {
	auditMu.Lock()
	if auditing {
		benchedAuditors = append(benchedAuditors, audit.Attach(c.M, audit.Config{}))
	}
	auditMu.Unlock()
}

// releaseCVM returns a finished experiment CVM's machine backing to the
// snp boot pool. Skipped while -audit is on: the collected auditors sweep
// their machines' RMPs again after all experiments finish.
func releaseCVM(c *cvm.CVM) {
	auditMu.Lock()
	on := auditing
	auditMu.Unlock()
	if !on {
		c.M.Release()
	}
}

// Run executes one workload under a mode on a fresh CVM.
func Run(w workloads.Workload, mode Mode) (Measurement, error) {
	c, err := bootFor(mode, 1000+int64(mode))
	if err != nil {
		return Measurement{}, err
	}
	defer releaseCVM(c)
	if err := w.Setup(c); err != nil {
		return Measurement{}, fmt.Errorf("bench: setup %s: %w", w.Name, err)
	}
	prog := w.Build(c)

	var run func() (int, error)
	var marshalCalls func() uint64 = func() uint64 { return 0 }
	switch mode {
	case ModeEnclave:
		host := c.K.Spawn(w.Name + "-host")
		app, err := sdk.LaunchEnclave(c, host, prog, sdk.EnclaveConfig{RegionPages: w.RegionPages})
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: launch enclave: %w", err)
		}
		run = func() (int, error) { return app.Enter(w.Args...) }
		marshalCalls = func() uint64 { return app.Enclave().Calls() }
	default:
		p := c.K.Spawn(w.Name)
		lc := &sdk.DirectLibc{K: c.K, P: p}
		run = func() (int, error) { return prog.Main(lc, w.Args), nil }
	}

	clk := c.M.Clock().Snapshot()
	tr := c.M.Trace().Snapshot()
	attrBefore := attrSnapshot(c)
	rc, err := run()
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: run %s/%s: %w", w.Name, mode, err)
	}
	d := c.M.Trace().Since(tr)
	cycles := c.M.Clock().Since(clk)
	threads := w.Threads
	if threads <= 0 {
		threads = 1
	}
	return Measurement{
		Workload:     w.Name,
		Cycles:       cycles,
		WallSeconds:  float64(cycles) / (float64(threads) * snp.SimClockHz),
		Syscalls:     d.Syscalls,
		EnclaveExits: d.EnclaveExits,
		AuditRecords: d.AuditRecords,
		Switches:     d.DomainSwitches,
		SwitchCycles: c.M.Clock().SinceOf(clk, snp.CostVMGEXIT) + c.M.Clock().SinceOf(clk, snp.CostVMENTER),
		CopyCycles:   c.M.Clock().SinceOf(clk, snp.CostPageCopy),
		MarshalCalls: marshalCalls(),
		ExitCode:     rc,
		Attr:         attrSnapshot(c).Sub(attrBefore),
	}, nil
}

// attrSnapshot reads the cycle-attribution table from the CVM's obs metrics
// registry (zero when no recorder is attached).
func attrSnapshot(c *cvm.CVM) snp.Attribution {
	return snp.AttributionOf(c.M.Recorder().Metrics().CyclesByKind())
}

// Overhead returns (with-service − base)/base as a percentage.
func Overhead(base, with Measurement) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return 100 * (float64(with.Cycles) - float64(base.Cycles)) / float64(base.Cycles)
}

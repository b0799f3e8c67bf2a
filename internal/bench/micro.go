package bench

import (
	"bytes"
	"fmt"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/snp"
	"veil/internal/vmod"
	"veil/internal/workloads"
)

// BootResult captures the §9.1 initialization-time experiment.
type BootResult struct {
	MemBytes          uint64
	NativeCycles      uint64
	VeilCycles        uint64
	NativeSeconds     float64
	VeilSeconds       float64
	DeltaSeconds      float64
	DeltaPct          float64
	SweepShareOfDelta float64 // RMPADJUST + page-touch share of the delta
}

// BootInit measures CVM boot natively and under Veil. The paper's testbed
// is 2 GiB (pass memBytes = 2<<30 to reproduce the ~2 s / ~13% result);
// smaller machines scale the sweep proportionally.
func BootInit(memBytes uint64) (BootResult, error) {
	if memBytes == 0 {
		memBytes = 2 << 30
	}
	nat, err := cvm.Boot(cvm.Options{MemBytes: memBytes, VCPUs: 4, Veil: false, Rand: cvm.SeededRand(51)})
	if err != nil {
		return BootResult{}, err
	}
	// Native CVMs accept lazily; level the field the way the paper's
	// baseline does by charging the kernel's deferred acceptance as it
	// would occur across first use of memory. We measure boot as-is: the
	// delta below is Veil's *additional* work, the paper's metric.
	veil, err := cvm.Boot(cvm.Options{MemBytes: memBytes, VCPUs: 4, Veil: true, LogPages: 1024, Rand: cvm.SeededRand(52)})
	if err != nil {
		return BootResult{}, err
	}
	r := BootResult{
		MemBytes:      memBytes,
		NativeCycles:  nat.M.Clock().Cycles(),
		VeilCycles:    veil.M.Clock().Cycles(),
		NativeSeconds: nat.M.Clock().Seconds(),
		VeilSeconds:   veil.M.Clock().Seconds(),
	}
	// The paper reports the delta over a native boot that takes ~15 s
	// (kernel + userspace bring-up, which the model does not simulate);
	// DeltaPct uses that reference wall time.
	const nativeBootReferenceSeconds = 15.0
	r.DeltaSeconds = r.VeilSeconds - r.NativeSeconds
	r.DeltaPct = 100 * r.DeltaSeconds / nativeBootReferenceSeconds
	clk := veil.M.Clock()
	sweep := clk.CyclesOf(snp.CostRMPADJUST) + clk.CyclesOf(snp.CostCompute)
	if d := r.VeilCycles - r.NativeCycles; d > 0 {
		r.SweepShareOfDelta = float64(sweep) / float64(d)
		if r.SweepShareOfDelta > 1 {
			r.SweepShareOfDelta = 1
		}
	}
	releaseCVM(nat)
	releaseCVM(veil)
	return r, nil
}

// SwitchResult captures the §9.1 domain-switch-cost experiment.
type SwitchResult struct {
	Iterations          int
	CyclesPerSwitch     uint64 // one VMGEXIT+VMENTER pair (paper: 7135)
	CyclesPerRoundTrip  uint64 // OS→Mon→OS including IDCB handling
	CyclesPerPlainVMCAL uint64 // non-SNP VM exit (paper: ~1100)
}

// DomainSwitchCost performs n OS↔VeilMon round trips (the paper uses
// 10,000) and reports the per-switch cost.
func DomainSwitchCost(n int) (SwitchResult, error) {
	if n <= 0 {
		n = 10000
	}
	c, err := bootFor(ModeVeilIdle, 53)
	if err != nil {
		return SwitchResult{}, err
	}
	defer releaseCVM(c)
	// A page the monitor will accept state changes for.
	frame, err := c.K.AllocFrame()
	if err != nil {
		return SwitchResult{}, err
	}
	_ = frame
	clk := c.M.Clock().Snapshot()
	tr := c.M.Trace().Snapshot()
	for i := 0; i < n; i++ {
		// The cheapest monitor request: a stats query to Dom-SRV.
		if _, err := c.Stub.CallSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogStats}); err != nil {
			return SwitchResult{}, err
		}
	}
	d := c.M.Trace().Since(tr)
	switchCycles := c.M.Clock().SinceOf(clk, snp.CostVMGEXIT) + c.M.Clock().SinceOf(clk, snp.CostVMENTER)
	res := SwitchResult{
		Iterations:         n,
		CyclesPerSwitch:    switchCycles / d.DomainSwitches,
		CyclesPerRoundTrip: c.M.Clock().Since(clk) / uint64(n),
	}
	clk = c.M.Clock().Snapshot()
	for i := 0; i < n; i++ {
		c.HV.VMCall(0)
	}
	res.CyclesPerPlainVMCAL = c.M.Clock().Since(clk) / uint64(n)
	return res, nil
}

// BackgroundRow is one workload of the §9.1 background-impact experiment:
// the same program on a native CVM vs an idle Veil CVM (no protected
// service in use).
type BackgroundRow struct {
	Workload     string
	NativeCycles uint64
	VeilCycles   uint64
	OverheadPct  float64
}

// Background regenerates the §9.1 "background system impact" measurement
// over SPEC-like compute, memcached and NGINX (paper: <2% on all three).
func Background() ([]BackgroundRow, error) {
	var rows []BackgroundRow
	for _, name := range []string{"spec-like", "memcached", "nginx"} {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		base, err := Run(w, ModeNative)
		if err != nil {
			return nil, err
		}
		veil, err := Run(w, ModeVeilIdle)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BackgroundRow{
			Workload:     w.Name,
			NativeCycles: base.Cycles,
			VeilCycles:   veil.Cycles,
			OverheadPct:  Overhead(base, veil),
		})
	}
	return rows, nil
}

// CS1Result captures the secure module load/unload case study (§9.2).
type CS1Result struct {
	Iterations         int
	ModuleBytes        int
	InstalledBytes     int
	NativeLoadCycles   uint64
	VeilLoadCycles     uint64
	NativeUnloadCycles uint64
	VeilUnloadCycles   uint64
	LoadDeltaCycles    uint64
	UnloadDeltaCycles  uint64
	LoadPct            float64
	UnloadPct          float64
}

// CS1Module measures module load/unload with and without VeilS-Kci, using
// the paper's module shape (4728-byte binary, 24 KiB installed), averaged
// over n repetitions (the paper uses 100).
func CS1Module(n int) (CS1Result, error) {
	if n <= 0 {
		n = 100
	}
	mod := &vmod.Module{
		Name: "veil_cs1",
		Text: bytes.Repeat([]byte{0x90}, 3100),
		Data: bytes.Repeat([]byte{0x22}, 1500),
		BSS:  16 * 1024,
		Relocs: []vmod.Reloc{
			{Offset: 0, Symbol: "printk"},
			{Offset: 64, Symbol: "kmalloc"},
			{Offset: 128, Symbol: "register_chrdev"},
		},
	}

	measure := func(veilMode bool, seed int64) (load, unload uint64, image []byte, err error) {
		c, err := cvm.Boot(cvm.Options{
			MemBytes: benchMem, VCPUs: 1, Veil: veilMode, LogPages: 8, Rand: cvm.SeededRand(seed),
		})
		if err != nil {
			return 0, 0, nil, err
		}
		defer releaseCVM(c)
		image = mod.Sign(c.ModulePriv)
		var loadTotal, unloadTotal uint64
		for i := 0; i < n; i++ {
			before := c.M.Clock().Cycles()
			lm, err := c.K.Modules().Load(image)
			if err != nil {
				return 0, 0, nil, fmt.Errorf("load (veil=%v): %w", veilMode, err)
			}
			loadTotal += c.M.Clock().Cycles() - before
			before = c.M.Clock().Cycles()
			if err := c.K.Modules().Unload(lm.ID); err != nil {
				return 0, 0, nil, fmt.Errorf("unload (veil=%v): %w", veilMode, err)
			}
			unloadTotal += c.M.Clock().Cycles() - before
		}
		return loadTotal / uint64(n), unloadTotal / uint64(n), image, nil
	}

	nl, nu, image, err := measure(false, 61)
	if err != nil {
		return CS1Result{}, err
	}
	vl, vu, _, err := measure(true, 62)
	if err != nil {
		return CS1Result{}, err
	}
	res := CS1Result{
		Iterations:         n,
		ModuleBytes:        len(image),
		InstalledBytes:     mod.InstalledSize(),
		NativeLoadCycles:   nl,
		VeilLoadCycles:     vl,
		NativeUnloadCycles: nu,
		VeilUnloadCycles:   vu,
		LoadDeltaCycles:    vl - nl,
		UnloadDeltaCycles:  vu - nu,
		LoadPct:            100 * float64(vl-nl) / float64(nl),
		UnloadPct:          100 * float64(vu-nu) / float64(nu),
	}
	return res, nil
}

package cvm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"veil/internal/core"
	"veil/internal/kernel"
	"veil/internal/snp"
	"veil/internal/vmod"
)

func bootVeilCVM(t *testing.T, vcpus int) *CVM {
	t.Helper()
	c, err := Boot(Options{
		MemBytes: 24 << 20, // small machine: the sweep covers 6144 pages
		VCPUs:    vcpus,
		Veil:     true,
		LogPages: 16,
		Rand:     SeededRand(1),
	})
	if err != nil {
		t.Fatalf("veil boot: %v", err)
	}
	return c
}

func bootNativeCVM(t *testing.T, vcpus int) *CVM {
	t.Helper()
	c, err := Boot(Options{
		MemBytes: 24 << 20,
		VCPUs:    vcpus,
		Veil:     false,
		Rand:     SeededRand(2),
	})
	if err != nil {
		t.Fatalf("native boot: %v", err)
	}
	return c
}

func TestVeilBootBringsUpEverything(t *testing.T) {
	c := bootVeilCVM(t, 2)
	if !c.Veil() {
		t.Fatal("not a veil CVM")
	}
	if _, ok := c.HV.CurrentVMSA(1); !ok {
		t.Fatal("the application processor never started")
	}
	if c.M.Halted() != nil {
		t.Fatalf("machine halted during boot: %v", c.M.Halted())
	}
	// The kernel works normally in Dom-UNT.
	p := c.K.Spawn("init")
	fd, err := c.K.Open(p, "/etc/hostname", kernel.OCreat|kernel.ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.K.Write(p, fd, []byte("veil-cvm")); err != nil {
		t.Fatal(err)
	}
	// Both domain replicas exist for each VCPU.
	for v := 0; v < 2; v++ {
		for _, dom := range []uint64{core.DomSRV, core.DomUNT} {
			if _, ok := c.Mon.ReplicaVMSA(v, dom); !ok {
				t.Fatalf("vcpu %d missing replica for domain %d", v, dom)
			}
		}
	}
}

func TestNativeBootWorks(t *testing.T) {
	c := bootNativeCVM(t, 2)
	if c.Veil() {
		t.Fatal("unexpectedly a veil CVM")
	}
	if _, ok := c.HV.CurrentVMSA(1); !ok {
		t.Fatal("the application processor never started")
	}
	p := c.K.Spawn("init")
	if _, err := c.K.Mmap(p, 4*snp.PageSize, kernel.ProtRead|kernel.ProtWrite); err != nil {
		t.Fatal(err)
	}
}

func TestVeilBootCostStructure(t *testing.T) {
	c := bootVeilCVM(t, 1)
	clk := c.M.Clock()
	rmpCycles := clk.CyclesOf(snp.CostRMPADJUST)
	if rmpCycles == 0 {
		t.Fatal("boot sweep charged no RMPADJUST cycles")
	}
	// RMPADJUST + the cold page touches must dominate boot (>70%, §9.1).
	sweepShare := float64(rmpCycles+clk.CyclesOf(snp.CostCompute)) / float64(clk.Cycles())
	if sweepShare < 0.70 {
		t.Fatalf("sweep share = %.2f, want > 0.70", sweepShare)
	}
}

func TestRemoteAttestationAndChannel(t *testing.T) {
	c := bootVeilCVM(t, 1)
	user, err := core.NewRemoteUser(c.PSP.PublicKey(), c.ExpectedMeasurement(),
		SeededRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Connect(c.Stub); err != nil {
		t.Fatalf("attestation handshake: %v", err)
	}
	// Retrieve log stats over the secure channel.
	reply, err := user.Request(c.Stub, append([]byte{core.SvcLOG}, []byte("STATS")...))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(reply), "count=") {
		t.Fatalf("stats reply = %q", reply)
	}
}

func TestAttestationRejectsWrongMeasurement(t *testing.T) {
	c := bootVeilCVM(t, 1)
	var wrong [32]byte // attacker booted a different image
	user, err := core.NewRemoteUser(c.PSP.PublicKey(), wrong, SeededRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Connect(c.Stub); err == nil {
		t.Fatal("user connected to an unverified image")
	}
}

func TestAuditRecordsLandInProtectedStore(t *testing.T) {
	c := bootVeilCVM(t, 1)
	c.K.Audit().SetRules([]kernel.SysNo{kernel.SysOpen})
	p := c.K.Spawn("auditee")
	if _, err := c.K.Open(p, "/tmp/f", kernel.OCreat|kernel.OWronly, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := c.LOG.Count(); got != 1 {
		t.Fatalf("protected store count = %d, want 1", got)
	}
	recs, err := c.LOG.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(recs[0], []byte("syscall=open")) {
		t.Fatalf("record = %s", recs[0])
	}
	// Native kernel buffer stays empty: records bypass OS-writable memory.
	if len(c.K.Audit().Records()) != 0 {
		t.Fatal("records leaked into the OS-tamperable buffer")
	}
}

func TestPValidateDelegationSharePage(t *testing.T) {
	c := bootVeilCVM(t, 1)
	f, err := c.K.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	before := c.M.Trace().Snapshot()
	if err := c.K.SharePageWithHost(f); err != nil {
		t.Fatalf("share page via delegation: %v", err)
	}
	d := c.M.Trace().Since(before)
	if d.DomainSwitches < 2 {
		t.Fatalf("delegation used %d switches, want ≥ 2", d.DomainSwitches)
	}
	e, _ := c.M.RMPEntryAt(f)
	if e.Assigned {
		t.Fatal("page still assigned after share")
	}
}

func TestPValidateDelegationDeniesProtectedTargets(t *testing.T) {
	c := bootVeilCVM(t, 1)
	// The OS asks VeilMon to invalidate a monitor-heap page: the sanitizer
	// must refuse (Table 1, "OS sends malicious request").
	err := c.Stub.PValidate(c.Lay.MonHeapLo, false)
	if !errors.Is(err, core.ErrDenied) {
		t.Fatalf("PValidate(monitor page) = %v, want ErrDenied", err)
	}
	if c.M.Halted() != nil {
		t.Fatal("sanitized denial must not halt the CVM")
	}
}

func buildTestModule(t *testing.T, c *CVM, name string) []byte {
	t.Helper()
	m := &vmod.Module{
		Name:   name,
		Text:   bytes.Repeat([]byte{0xCC}, 3000),
		Data:   bytes.Repeat([]byte{0x11}, 1000),
		BSS:    16 * 1024,
		Relocs: []vmod.Reloc{{Offset: 8, Symbol: "printk"}},
	}
	return m.Sign(c.ModulePriv)
}

func TestModuleLoadThroughKCI(t *testing.T) {
	c := bootVeilCVM(t, 1)
	image := buildTestModule(t, c, "veil_hello")
	ran := false
	c.K.Modules().RegisterBehavior("veil_hello", func(*kernel.Kernel) error {
		ran = true
		return nil
	})
	lm, err := c.K.Modules().Load(image)
	if err != nil {
		t.Fatalf("module load via KCI: %v", err)
	}
	if err := c.K.Modules().Exec(lm.ID); err != nil {
		t.Fatalf("module exec: %v", err)
	}
	if !ran {
		t.Fatal("module payload did not run")
	}
	// The installed text is write-protected against the kernel itself.
	frames, ok := c.KCI.ModuleTextFrames(lm.VeilHandle())
	if !ok || len(frames) == 0 {
		t.Fatal("no protected text frames")
	}
	if err := c.K.WritePhys(frames[0], []byte{0x90}); !snp.IsNPF(err) {
		t.Fatalf("kernel write to module text = %v, want #NPF", err)
	}
	if c.M.Halted() == nil {
		t.Fatal("text overwrite must halt the CVM (§8.3 attack 2)")
	}
}

func TestModuleUnloadThroughKCI(t *testing.T) {
	c := bootVeilCVM(t, 1)
	image := buildTestModule(t, c, "veil_tmp")
	lm, err := c.K.Modules().Load(image)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.K.Modules().Unload(lm.ID); err != nil {
		t.Fatalf("module unload via KCI: %v", err)
	}
}

func TestTamperedModuleRejectedByKCI(t *testing.T) {
	c := bootVeilCVM(t, 1)
	image := buildTestModule(t, c, "veil_evil")
	// Root attacker flips a byte in the module after signing.
	image[100] ^= 0xFF
	if _, err := c.K.Modules().Load(image); err == nil {
		t.Fatal("tampered module accepted")
	}
	if c.M.Halted() != nil {
		t.Fatal("rejection must not halt the CVM")
	}
}

func TestKernelWXStopsSupervisorExecFromData(t *testing.T) {
	c := bootVeilCVM(t, 1)
	// Attacker stages shellcode in a kernel data page and tries to run it
	// in supervisor mode — even with page tables under its control, the
	// RMP refuses (§6.1).
	f, err := c.K.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.K.WritePhys(f, []byte{0x90, 0x90, 0xC3}); err != nil {
		t.Fatal(err)
	}
	if err := c.M.GuestExecCheckPhys(snp.VMPL3, snp.CPL0, f); !snp.IsNPF(err) {
		t.Fatalf("supervisor exec from data page = %v, want #NPF", err)
	}
}

func TestKernelTextIsImmutable(t *testing.T) {
	c := bootVeilCVM(t, 1)
	if err := c.M.GuestExecCheckPhys(snp.VMPL3, snp.CPL0, c.TextLo); err != nil {
		t.Fatalf("kernel text exec: %v", err)
	}
	if err := c.K.WritePhys(c.TextLo, []byte{0xCC}); !snp.IsNPF(err) {
		t.Fatalf("kernel text write = %v, want #NPF", err)
	}
}

// --- Table 1: attacks against the framework ---

func TestAttackOSReadsMonitorMemory(t *testing.T) {
	c := bootVeilCVM(t, 1)
	err := c.K.ReadPhys(c.Lay.MonImage, make([]byte, 16))
	if !snp.IsNPF(err) {
		t.Fatalf("OS read of Dom-MON memory = %v, want #NPF", err)
	}
	if c.M.Halted() == nil {
		t.Fatal("CVM must halt")
	}
}

func TestAttackOSWritesServiceMemory(t *testing.T) {
	c := bootVeilCVM(t, 1)
	// The log store lives in Dom-SRV-granted monitor frames.
	c.K.Audit().SetRules([]kernel.SysNo{kernel.SysOpen})
	p := c.K.Spawn("x")
	if _, err := c.K.Open(p, "/tmp/y", kernel.OCreat|kernel.OWronly, 0o644); err != nil {
		t.Fatal(err)
	}
	// Probe the monitor heap (which contains the store) from Dom-UNT.
	err := c.K.WritePhys(c.Lay.MonHeapLo, []byte("wipe"))
	if !snp.IsNPF(err) {
		t.Fatalf("OS write to Dom-SRV memory = %v, want #NPF", err)
	}
}

func TestAttackOSAdjustsVMPLRestrictions(t *testing.T) {
	c := bootVeilCVM(t, 1)
	// RMPADJUST from Dom-UNT: targeting an equal/higher VMPL is #GP; on a
	// restricted page it faults. Either way the restriction holds.
	err := c.M.RMPAdjust(snp.VMPL3, c.Lay.MonImage, snp.VMPL3, snp.PermAll)
	if err == nil {
		t.Fatal("OS lifted a VMPL restriction")
	}
	e, _ := c.M.RMPEntryAt(c.Lay.MonImage)
	if e.Perms[snp.VMPL3] != snp.PermNone {
		t.Fatal("monitor page permissions changed")
	}
}

func TestAttackOSOverwritesVMSA(t *testing.T) {
	c := bootVeilCVM(t, 1)
	srv, ok := c.Mon.ReplicaVMSA(0, core.DomSRV)
	if !ok {
		t.Fatal("no SRV replica")
	}
	err := c.K.WritePhys(srv, []byte{0xFF})
	if !snp.IsNPF(err) {
		t.Fatalf("OS write to VMSA = %v, want #NPF", err)
	}
}

func TestAttackOSCreatesPrivilegedVCPU(t *testing.T) {
	c := bootVeilCVM(t, 1)
	f, err := c.K.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	err = c.M.CreateVMSA(snp.VMPL3, f, snp.VMSA{VCPUID: 0, VMPL: snp.VMPL0}, snp.ContextFunc(func(snp.Reason) error { return nil }))
	if !snp.IsGP(err) {
		t.Fatalf("OS VMSA creation = %v, want #GP", err)
	}
}

func TestAttackHypervisorBlockedFromGuest(t *testing.T) {
	c := bootVeilCVM(t, 1)
	if err := c.HV.AttemptVMSATamper(c.Lay.BootVMSA); err == nil {
		t.Fatal("hypervisor tampered with boot VMSA")
	}
}

func TestTickInterruptsHandledByOS(t *testing.T) {
	c := bootVeilCVM(t, 1)
	before := c.M.Trace().Snapshot()
	for i := 0; i < 5; i++ {
		if err := c.HV.InjectInterrupt(0); err != nil {
			t.Fatal(err)
		}
	}
	if d := c.M.Trace().Since(before); d.Interrupts != 5 {
		t.Fatalf("interrupts = %d", d.Interrupts)
	}
	if c.M.Halted() != nil {
		t.Fatal("interrupt relay halted the CVM")
	}
}

func TestDelegationFromSecondVCPU(t *testing.T) {
	c := bootVeilCVM(t, 2)
	// The kernel on VCPU 1 delegates a page-state change through its own
	// IDCB and GHCB; the monitor's Dom-MON replica on that VCPU serves it.
	stub1 := core.NewOSStub(c.Mon, 1)
	f, err := c.K.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := stub1.PValidate(f, false); err != nil {
		t.Fatalf("delegated invalidate from VCPU 1: %v", err)
	}
	e, _ := c.M.RMPEntryAt(f)
	if e.Validated {
		t.Fatal("page still validated")
	}
	// Sanitization holds on every VCPU.
	if err := stub1.PValidate(c.Lay.MonImage, false); !errors.Is(err, core.ErrDenied) {
		t.Fatalf("VCPU 1 sanitize bypass: %v", err)
	}
}

func TestServiceRequestsFromSecondVCPU(t *testing.T) {
	c := bootVeilCVM(t, 2)
	stub1 := core.NewOSStub(c.Mon, 1)
	if err := stub1.AuditEmit([]byte("record from vcpu1")); err != nil {
		t.Fatalf("audit emit via VCPU 1: %v", err)
	}
	if c.LOG.Count() != 1 {
		t.Fatalf("store count = %d", c.LOG.Count())
	}
}

func TestSharedFrameReuseUnderVeil(t *testing.T) {
	// The unshare flow under Veil: page-state assign via hypercall, then
	// PVALIDATE through the delegation path, then the monitor re-grants
	// the kernel-region permissions.
	c := bootVeilCVM(t, 1)
	f, err := c.K.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.K.SharePageWithHost(f); err != nil {
		t.Fatal(err)
	}
	if err := c.K.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	g, err := c.K.AllocFrame()
	if err != nil {
		t.Fatalf("re-alloc under veil: %v", err)
	}
	if g != f {
		t.Fatalf("allocator returned %#x, want %#x", g, f)
	}
	if err := c.K.WritePhys(g, []byte("usable again")); err != nil {
		t.Fatalf("kernel write after unshare: %v", err)
	}
	// The monitor restored the standing grants (services can reach it).
	e, _ := c.M.RMPEntryAt(g)
	if e.Perms[snp.VMPL1] == snp.PermNone {
		t.Fatal("service permissions not re-granted after unshare")
	}
}

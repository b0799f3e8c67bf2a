package sdk

import (
	"math/rand"
	"testing"

	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/snp"
)

func bootVeilSMP(t *testing.T, vcpus int) *cvm.CVM {
	t.Helper()
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 32 << 20, VCPUs: vcpus, Veil: true, LogPages: 8,
		Rand: detRand{r: rand.New(rand.NewSource(55))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEnclaveThreadRunsOnSecondVCPU(t *testing.T) {
	c := bootVeilSMP(t, 2)
	prog := ProgramFunc(func(lc Libc, args []string) int {
		fd, err := lc.Open("/tmp/thread-"+args[0], kernel.OCreat|kernel.OWronly, 0o644)
		if err != nil {
			return 1
		}
		if _, err := lc.Write(fd, []byte("written by thread "+args[0])); err != nil {
			return 2
		}
		lc.Close(fd)
		return 0
	})
	host := c.K.Spawn("smp-host")
	app, err := LaunchEnclave(c, host, prog, EnclaveConfig{RegionPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Main thread on VCPU 0.
	if rc, err := app.Enter("t0"); err != nil || rc != 0 {
		t.Fatalf("t0: rc=%d err=%v", rc, err)
	}
	// Second thread on VCPU 1.
	th, err := app.AddThread(1)
	if err != nil {
		t.Fatalf("AddThread: %v", err)
	}
	if rc, err := app.EnterThread(th, "t1"); err != nil || rc != 0 {
		t.Fatalf("t1: rc=%d err=%v", rc, err)
	}
	for _, f := range []string{"/tmp/thread-t0", "/tmp/thread-t1"} {
		if _, err := c.K.VFS().Lookup(f); err != nil {
			t.Fatalf("%s missing: %v", f, err)
		}
	}
	// The thread shares enclave-wide state (exit counter spans VCPUs).
	if app.Enclave().Exits() < 6 {
		t.Fatalf("exits = %d across threads", app.Enclave().Exits())
	}
	if got := c.ENC.Threads(app.ID); len(got) != 1 || got[0] != 1 {
		t.Fatalf("service thread list = %v", got)
	}
}

func TestEnclaveThreadVMSAIsProtected(t *testing.T) {
	c := bootVeilSMP(t, 2)
	prog := ProgramFunc(func(Libc, []string) int { return 0 })
	host := c.K.Spawn("smp-host")
	app, err := LaunchEnclave(c, host, prog, EnclaveConfig{RegionPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.AddThread(1); err != nil {
		t.Fatal(err)
	}
	vmsa, ok := c.Mon.ReplicaVMSA(1, app.Tag)
	if !ok {
		t.Fatal("no thread VMSA registered")
	}
	if err := c.K.WritePhys(vmsa, []byte{0xFF}); !snp.IsNPF(err) {
		t.Fatalf("OS write to thread VMSA = %v, want #NPF", err)
	}
}

func TestAddThreadValidation(t *testing.T) {
	c := bootVeilSMP(t, 2)
	prog := ProgramFunc(func(Libc, []string) int { return 0 })
	host := c.K.Spawn("smp-host")
	app, err := LaunchEnclave(c, host, prog, EnclaveConfig{RegionPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The main thread's VCPU is taken.
	if _, err := app.AddThread(0); err == nil {
		t.Fatal("duplicate VCPU accepted")
	}
	// Out-of-range VCPU.
	if _, err := app.AddThread(7); err == nil {
		t.Fatal("bogus VCPU accepted")
	}
	// Double-adding the same VCPU.
	if _, err := app.AddThread(1); err != nil {
		t.Fatal(err)
	}
	if _, err := app.AddThread(1); err == nil {
		t.Fatal("second thread on same VCPU accepted")
	}
}

func TestThreadGHCBMustBeShared(t *testing.T) {
	c := bootVeilSMP(t, 2)
	prog := ProgramFunc(func(Libc, []string) int { return 0 })
	host := c.K.Spawn("smp-host")
	app, err := LaunchEnclave(c, host, prog, EnclaveConfig{RegionPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the service directly with a guest-private "GHCB".
	private, err := c.K.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	err = c.ENC.AddThread(app.ID, 1, private, app.Enclave().forThread(1, private))
	if err == nil {
		t.Fatal("private-page thread GHCB accepted")
	}
}

func TestThreadGHCBMustBeAligned(t *testing.T) {
	c := bootVeilSMP(t, 2)
	prog := ProgramFunc(func(Libc, []string) int { return 0 })
	host := c.K.Spawn("smp-host")
	app, err := LaunchEnclave(c, host, prog, EnclaveConfig{RegionPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Inside the enclave's shared GHCB page, but not at its start.
	ghcb := app.GHCB + 64
	err = c.ENC.AddThread(app.ID, 1, ghcb, app.Enclave().forThread(1, ghcb))
	if err == nil {
		t.Fatal("unaligned thread GHCB accepted")
	}
}

func TestThreadsTornDownOnDestroy(t *testing.T) {
	c := bootVeilSMP(t, 2)
	prog := ProgramFunc(func(Libc, []string) int { return 0 })
	host := c.K.Spawn("smp-host")
	app, err := LaunchEnclave(c, host, prog, EnclaveConfig{RegionPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.AddThread(1); err != nil {
		t.Fatal(err)
	}
	if err := app.Destroy(); err != nil {
		t.Fatalf("destroy with threads: %v", err)
	}
	if _, ok := c.Mon.ReplicaVMSA(1, app.Tag); ok {
		t.Fatal("thread VMSA survived destroy")
	}
}

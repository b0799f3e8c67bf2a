package veil_test

import (
	"fmt"
	"log"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/sdk"
	"veil/internal/snp"
)

// Example boots a Veil CVM, attests it, runs a shielded program and shows
// the enforcement is real. It doubles as executable documentation for the
// three public entry points: cvm.Boot, core.NewRemoteUser, and
// sdk.LaunchEnclave.
func Example() {
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: 1, Veil: true, LogPages: 8,
		Rand: cvm.SeededRand(1),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("veil CVM booted")

	user, err := core.NewRemoteUser(c.PSP.PublicKey(), c.ExpectedMeasurement(),
		cvm.SeededRand(2))
	if err != nil {
		log.Fatal(err)
	}
	if err := user.Connect(c.Stub); err != nil {
		log.Fatal(err)
	}
	fmt.Println("remote user attested the boot image at VMPL0")

	prog := sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
		fd, err := lc.Open("/tmp/out", kernel.OCreat|kernel.OWronly, 0o600)
		if err != nil {
			return 1
		}
		lc.Write(fd, []byte("shielded result"))
		return 0
	})
	host := c.K.Spawn("host")
	app, err := sdk.LaunchEnclave(c, host, prog, sdk.EnclaveConfig{RegionPages: 8})
	if err != nil {
		log.Fatal(err)
	}
	if rc, err := app.Enter(); err != nil || rc != 0 {
		log.Fatal(rc, err)
	}
	fmt.Println("enclave ran; syscalls were redirected through the sanitizer")

	frames, _ := host.RegionFrames(kernel.UserBinBase)
	if err := c.K.ReadPhys(frames[0], make([]byte, 8)); snp.IsNPF(err) {
		fmt.Println("OS read of enclave memory faulted: enforcement is real")
	}

	// Output:
	// veil CVM booted
	// remote user attested the boot image at VMPL0
	// enclave ran; syscalls were redirected through the sanitizer
	// OS read of enclave memory faulted: enforcement is real
}

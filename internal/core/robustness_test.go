package core_test

// Robustness of the trusted side against malformed OS requests: §8.1's
// sanitization argument only holds if no hostile IDCB content can panic or
// wedge VeilMon or a service. These tests throw randomized request frames
// at every registered service and assert the monitor survives (requests
// may fail; the CVM must not halt and the dispatcher must keep serving).

import (
	"errors"
	"math/rand"
	"testing"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/obs"
	"veil/internal/snp"
)

type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

func bootVeil(t *testing.T) *cvm.CVM {
	t.Helper()
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: 1, Veil: true, LogPages: 8,
		Rand: detRand{r: rand.New(rand.NewSource(61))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMonitorSurvivesMalformedRequests(t *testing.T) {
	c := bootVeil(t)
	rng := rand.New(rand.NewSource(62))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("trusted side panicked on hostile input: %v", r)
		}
	}()
	for i := 0; i < 600; i++ {
		svc := uint8(rng.Intn(8))
		op := uint8(rng.Intn(8))
		payload := make([]byte, rng.Intn(256))
		rng.Read(payload)
		req := core.Request{Svc: svc, Op: op, Payload: payload}
		var err error
		if rng.Intn(2) == 0 {
			_, err = c.Stub.CallMon(req)
		} else {
			_, err = c.Stub.CallSrv(req)
		}
		_ = err // failures are fine; panics and halts are not
		if c.M.Halted() != nil {
			t.Fatalf("iteration %d: hostile request halted the CVM: %v", i, c.M.Halted())
		}
	}
	// The dispatcher still works after the barrage.
	f, err := c.K.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.K.SharePageWithHost(f); err != nil {
		t.Fatalf("delegation broken after fuzz: %v", err)
	}
}

func TestMonitorSurvivesHostilePointersInRequests(t *testing.T) {
	c := bootVeil(t)
	// Pointer-shaped payloads aimed at every protected region the OS can
	// name: the monitor image, the heap, VMSAs, and out-of-range values.
	targets := []uint64{
		c.Lay.MonImage, c.Lay.MonHeapLo, c.Lay.BootVMSA,
		c.Lay.MonHeapHi - snp.PageSize,
		^uint64(0) - 4096, 0,
	}
	for _, phys := range targets {
		if err := c.Stub.PValidate(phys, false); err == nil {
			// Only legitimate kernel pages may succeed.
			if phys < c.Lay.KernelLo {
				t.Fatalf("PValidate on protected %#x succeeded", phys)
			}
		}
		if c.M.Halted() != nil {
			t.Fatalf("hostile pointer %#x halted the CVM", phys)
		}
	}
}

// A page-state request whose range wraps past 2^64 is refused by the
// sanitizer with evidence, not passed on to PVALIDATE to fail there.
func TestPValidateWrappedRangeDenied(t *testing.T) {
	c := bootVeil(t)
	const phys = 0xFFFF_FFFF_FFFF_F000
	if err := c.Stub.PValidate(phys, false); !errors.Is(err, core.ErrDenied) {
		t.Fatalf("PValidate(%#x) = %v, want ErrDenied", uint64(phys), err)
	}
	evidenced := false
	for _, e := range c.M.FlightTail() {
		if e.Class == obs.ClassDenied && e.Arg1 == uint64(snp.DeniedSanitize) && e.Arg2 == phys {
			evidenced = true
		}
	}
	if !evidenced {
		t.Fatal("no DeniedSanitize evidence for the wrapped range")
	}
}

func TestMonitorHypercallPreservesGHCBMSR(t *testing.T) {
	c := bootVeil(t)
	// The steady state points the MSR at the kernel GHCB.
	want, ok := c.M.ReadGHCBMSR(0)
	if !ok {
		t.Fatal("no GHCB MSR after boot")
	}
	// A delegated call makes the monitor issue its own hypercalls (page
	// state + attest); the kernel's MSR value must be restored after.
	if _, err := c.Stub.CallMon(core.Request{Svc: core.SvcMon, Op: core.OpAttest}); err != nil {
		t.Fatal(err)
	}
	got, _ := c.M.ReadGHCBMSR(0)
	if got != want {
		t.Fatalf("GHCB MSR clobbered: %#x → %#x", want, got)
	}
}

func TestBootAPRejectsBogusVCPUs(t *testing.T) {
	c := bootVeil(t)
	for _, ap := range []uint32{0, 99} {
		payload := []byte{byte(ap), byte(ap >> 8), byte(ap >> 16), byte(ap >> 24)}
		resp, err := c.Stub.CallMon(core.Request{Svc: core.SvcMon, Op: core.OpBootAP, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == core.StatusOK {
			t.Fatalf("BootAP(%d) accepted", ap)
		}
	}
}

package hv

import (
	"testing"

	"veil/internal/snp"
)

func TestInterruptModeString(t *testing.T) {
	cases := map[InterruptMode]string{
		RelayToUntrusted:  "relay-to-untrusted",
		RefuseRelay:       "refuse-relay",
		MisrouteVCPU:      "misroute-vcpu",
		DropInterrupt:     "drop-interrupt",
		InterruptMode(99): "interrupt-mode(?)",
		InterruptMode(-1): "interrupt-mode(?)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("InterruptMode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

// The per-delivery chooser overrides the static mode once per injection:
// a host that drops the first interrupt and relays the second honestly.
func TestInterruptModeChooserPerDelivery(t *testing.T) {
	h := newHarness(t)
	h.hv.SetInterruptRelay(RelayToUntrusted, tagOS)

	deliveries := 0
	h.hv.SetInterruptModeChooser(func(vcpuID int) InterruptMode {
		deliveries++
		if deliveries == 1 {
			return DropInterrupt
		}
		return RelayToUntrusted
	})

	if err := h.hv.InjectInterrupt(0); err != nil {
		t.Fatal(err)
	}
	if len(h.osCalls) != 0 {
		t.Fatalf("dropped delivery ran the OS handler: %v", h.osCalls)
	}
	if err := h.hv.InjectInterrupt(0); err != nil {
		t.Fatal(err)
	}
	if len(h.osCalls) != 1 || h.osCalls[0] != snp.ReasonInterrupt {
		t.Fatalf("honest delivery after a dropped one: OS calls %v", h.osCalls)
	}
	if deliveries != 2 {
		t.Fatalf("chooser consulted %d times, want once per delivery", deliveries)
	}

	// nil restores the static mode.
	h.hv.SetInterruptModeChooser(nil)
	if err := h.hv.InjectInterrupt(0); err != nil {
		t.Fatal(err)
	}
	if len(h.osCalls) != 2 {
		t.Fatalf("static mode not restored: OS calls %v", h.osCalls)
	}
}

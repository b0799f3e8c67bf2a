package obs_test

import (
	"bytes"
	"testing"

	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/obs"
	"veil/internal/snp"
)

// runOnce boots a small Veil CVM with a recorder attached, performs a fixed
// bit of kernel work, and returns the Chrome export.
func runOnce(t *testing.T) []byte {
	t.Helper()
	rec := obs.NewRecorder(1 << 16)
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: 1, Veil: true, LogPages: 8,
		Rand: cvm.SeededRand(7), Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.K.Audit().SetRules(kernel.DefaultRuleset())
	p := c.K.Spawn("e2e")
	fd, err := c.K.Open(p, "/tmp/e2e.txt", kernel.OCreat|kernel.ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.K.Write(p, fd, []byte("observability")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = obs.WriteChromeTrace(&buf, obs.ChromeOptions{
		ProcessName:          "veil-test",
		CyclesPerMicrosecond: float64(snp.SimClockHz) / 1e6,
		SyscallName:          func(n uint64) string { return kernel.SysNo(n).Name() },
	}, rec)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEndToEndTraceDeterminism is the acceptance check: two identical
// simulations must export byte-identical timelines.
func TestEndToEndTraceDeterminism(t *testing.T) {
	a := runOnce(t)
	b := runOnce(t)
	if !bytes.Equal(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("exports diverge at byte %d:\n run1: …%s\n run2: …%s",
					i, a[lo:min(i+80, len(a))], b[lo:min(i+80, len(b))])
			}
		}
		t.Fatalf("exports differ in length: %d vs %d", len(a), len(b))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

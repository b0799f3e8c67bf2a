package veil

// Determinism acceptance tests for the obs v2 exports: the causal trace
// and the post-mortem dump must be byte-identical across identical runs,
// and the post-mortem of one fixed attack scenario is pinned as a golden
// under testdata/goldens/ (regenerate with `go test -run PostMortem
// -update .`).

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"veil/internal/audit"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/mm"
	"veil/internal/obs"
	"veil/internal/sdk"
	"veil/internal/snp"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/goldens from this run")

// causalRun performs a fixed mixed workload — syscalls plus one enclave
// call, so the forest has both request kinds — and exports the causal
// trace.
func causalRun(t *testing.T) []byte {
	t.Helper()
	rec := obs.NewRecorder(1 << 16)
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: 1, Veil: true, LogPages: 8,
		Rand: cvm.SeededRand(11), Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.K.Audit().SetRules(kernel.DefaultRuleset())
	p := c.K.Spawn("causal")
	fd, err := c.K.Open(p, "/tmp/causal.txt", kernel.OCreat|kernel.ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.K.Write(p, fd, []byte("deterministic")); err != nil {
		t.Fatal(err)
	}
	prog := sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
		f, err := lc.Open("/tmp/enc.txt", kernel.OCreat|kernel.ORdwr, 0o600)
		if err != nil {
			return 1
		}
		lc.Write(f, []byte("inside"))
		lc.Close(f)
		return 0
	})
	host := c.K.Spawn("causal-host")
	app, err := sdk.LaunchEnclave(c, host, prog, sdk.EnclaveConfig{RegionPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rc, err := app.Enter(); err != nil || rc != 0 {
		t.Fatalf("enclave run: rc=%d err=%v", rc, err)
	}
	var buf bytes.Buffer
	if err := obs.WriteCausalTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCausalTraceDeterministic: two identical simulations must export
// byte-identical causal request forests.
func TestCausalTraceDeterministic(t *testing.T) {
	a, b := causalRun(t), causalRun(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("causal exports differ: %d vs %d bytes", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("causal export is empty")
	}
}

// tlbTestFrames adapts the kernel's allocator to mm.FrameSource.
type tlbTestFrames struct{ k *kernel.Kernel }

func (f tlbTestFrames) AllocFrame() (uint64, error) { return f.k.Allocator().Alloc() }
func (f tlbTestFrames) FreeFrame(p uint64) error    { return f.k.Allocator().Free(p) }

// staleTLBPostMortem replays the fixed attack scenario from the veil-attack
// suite — suppress TLB invalidation, revoke a frame via RMPADJUST, serve a
// read off the stale verdict — under the invariant auditor, and returns the
// frozen post-mortem JSON.
func staleTLBPostMortem(t *testing.T) []byte {
	t.Helper()
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: 1, Veil: true, LogPages: 8,
		Rand: cvm.SeededRand(13),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := audit.Attach(c.M, audit.Config{})
	as, err := mm.NewAddressSpace(c.M, snp.VMPL3, tlbTestFrames{c.K})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := c.K.Allocator().Alloc()
	if err != nil {
		t.Fatal(err)
	}
	const virt = uint64(0x7000_0000)
	if err := as.Map(virt, frame, snp.PTEWrite|snp.PTEUser); err != nil {
		t.Fatal(err)
	}
	ctx := as.Context(snp.CPL0)
	if err := ctx.WriteU64(virt, 0x600D_DA7A); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.ReadU64(virt); err != nil {
		t.Fatal(err)
	}
	c.M.SetBrokenTLBNoInvalidate(true)
	if err := c.M.RMPAdjust(snp.VMPL0, frame, snp.VMPL3, snp.PermNone); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.ReadU64(virt); err != nil {
		t.Fatalf("stale verdict did not serve the access: %v", err)
	}
	a.Sweep()
	if a.Violations() == 0 {
		t.Fatal("auditor missed the stale-TLB inconsistency")
	}
	pm := c.M.PostMortem()
	if pm == nil {
		t.Fatal("no post-mortem was frozen")
	}
	var buf bytes.Buffer
	if err := pm.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPostMortemDeterministicGolden: the fixed attack scenario freezes a
// byte-identical post-mortem across runs, pinned against the committed
// golden.
func TestPostMortemDeterministicGolden(t *testing.T) {
	a, b := staleTLBPostMortem(t), staleTLBPostMortem(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("post-mortem exports differ: %d vs %d bytes", len(a), len(b))
	}
	golden := filepath.Join("testdata", "goldens", "postmortem_stale_tlb.json")
	if *updateGoldens {
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s (%d bytes)", golden, len(a))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(a, want) {
		t.Fatalf("post-mortem drifted from golden %s: got %d bytes, want %d — rerun with -update if intended",
			golden, len(a), len(want))
	}
}

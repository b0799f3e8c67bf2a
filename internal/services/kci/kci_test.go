package kci_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/snp"
	"veil/internal/vmod"
)

func bootVeil(t *testing.T) *cvm.CVM {
	t.Helper()
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: 1, Veil: true, LogPages: 8,
		Rand: cvm.SeededRand(41),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func signedModule(t *testing.T, c *cvm.CVM, name string) ([]byte, *vmod.Module) {
	t.Helper()
	m := &vmod.Module{
		Name:   name,
		Text:   bytes.Repeat([]byte{0x90}, 2500),
		Data:   bytes.Repeat([]byte{0x01}, 500),
		BSS:    8 * 1024,
		Relocs: []vmod.Reloc{{Offset: 0, Symbol: "printk"}},
	}
	return m.Sign(c.ModulePriv), m
}

// loadViaStub drives the exact OS-side protocol (stage chunks + load).
func loadViaStub(t *testing.T, c *cvm.CVM, image []byte, frames []uint64) (core.Response, error) {
	t.Helper()
	const chunk = core.IDCBPayloadMax
	for off := 0; off < len(image); off += chunk {
		end := off + chunk
		if end > len(image) {
			end = len(image)
		}
		resp, err := c.Stub.CallSrv(core.Request{Svc: core.SvcKCI, Op: core.OpKciStage, Payload: image[off:end]})
		if err != nil || resp.Status != core.StatusOK {
			t.Fatalf("stage: %v %d", err, resp.Status)
		}
	}
	payload := make([]byte, 4+8*len(frames))
	binary.LittleEndian.PutUint32(payload, uint32(len(frames)))
	for i, f := range frames {
		binary.LittleEndian.PutUint64(payload[4+8*i:], f)
	}
	return c.Stub.CallSrv(core.Request{Svc: core.SvcKCI, Op: core.OpKciLoad, Payload: payload})
}

func allocFrames(t *testing.T, c *cvm.CVM, n int) []uint64 {
	t.Helper()
	out := make([]uint64, n)
	for i := range out {
		f, err := c.K.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = f
	}
	return out
}

func TestLoadInstallsRelocatesAndProtects(t *testing.T) {
	c := bootVeil(t)
	image, m := signedModule(t, c, "mod1")
	frames := allocFrames(t, c, m.InstalledSize()/snp.PageSize)
	resp, err := loadViaStub(t, c, image, frames)
	if err != nil || resp.Status != core.StatusOK {
		t.Fatalf("load: %v %d", err, resp.Status)
	}
	// The relocation patched the first 8 text bytes with printk's address.
	buf := make([]byte, 8)
	if err := c.K.ReadPhys(frames[0], buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf); got != c.K.Modules().SymbolTable()["printk"] {
		t.Fatalf("relocation = %#x", got)
	}
	// Text is executable but immutable for the kernel.
	if err := c.M.GuestExecCheckPhys(snp.VMPL3, snp.CPL0, frames[0]); err != nil {
		t.Fatalf("module text exec: %v", err)
	}
	if err := c.K.WritePhys(frames[0], []byte{0xCC}); !snp.IsNPF(err) {
		t.Fatalf("module text write = %v, want #NPF", err)
	}
}

func TestLoadRejectsProtectedDestination(t *testing.T) {
	c := bootVeil(t)
	image, m := signedModule(t, c, "mod2")
	frames := allocFrames(t, c, m.InstalledSize()/snp.PageSize)
	// Swap one destination for a monitor-heap page: the sanitizer must
	// refuse (§8.1 pointer sanitization).
	frames[0] = c.Lay.MonHeapLo
	resp, err := loadViaStub(t, c, image, frames)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != core.StatusDenied {
		t.Fatalf("status = %d, want denied", resp.Status)
	}
	if c.M.Halted() != nil {
		t.Fatal("denial must not halt")
	}
}

func TestLoadRejectsWrongFrameCount(t *testing.T) {
	c := bootVeil(t)
	image, _ := signedModule(t, c, "mod3")
	frames := allocFrames(t, c, 1) // too few for the installed size
	resp, err := loadViaStub(t, c, image, frames)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status == core.StatusOK {
		t.Fatal("short frame list accepted")
	}
}

func TestLoadRejectsUnsignedImage(t *testing.T) {
	c := bootVeil(t)
	image, m := signedModule(t, c, "mod4")
	image[50] ^= 1
	frames := allocFrames(t, c, m.InstalledSize()/snp.PageSize)
	resp, err := loadViaStub(t, c, image, frames)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != core.StatusDenied {
		t.Fatalf("status = %d, want denied", resp.Status)
	}
}

func TestFreeRestoresKernelAccess(t *testing.T) {
	c := bootVeil(t)
	image, m := signedModule(t, c, "mod5")
	frames := allocFrames(t, c, m.InstalledSize()/snp.PageSize)
	resp, err := loadViaStub(t, c, image, frames)
	if err != nil || resp.Status != core.StatusOK {
		t.Fatal(err)
	}
	handle := binary.LittleEndian.Uint32(resp.Payload)
	fp := make([]byte, 4)
	binary.LittleEndian.PutUint32(fp, handle)
	resp, err = c.Stub.CallSrv(core.Request{Svc: core.SvcKCI, Op: core.OpKciFree, Payload: fp})
	if err != nil || resp.Status != core.StatusOK {
		t.Fatalf("free: %v %d", err, resp.Status)
	}
	// The kernel can reuse the frame as data now.
	if err := c.K.WritePhys(frames[0], []byte{0x00}); err != nil {
		t.Fatalf("write after free: %v", err)
	}
}

// TestTextJoinsProtectedRegions: kernel text is protected from boot, and a
// module's text frames from load to free, so the sanitizer refuses every
// OS-chosen address naming them; the module's data frames stay open.
func TestTextJoinsProtectedRegions(t *testing.T) {
	c := bootVeil(t)
	if c.Mon.Sanitize(c.TextLo, snp.PageSize) == nil || c.Mon.Sanitize(c.TextHi-snp.PageSize, snp.PageSize) == nil {
		t.Fatal("sanitizer accepts kernel text")
	}
	if c.Mon.Sanitize(c.TextHi, snp.PageSize) != nil {
		t.Fatal("sanitizer refuses the first kernel data page")
	}
	if c.Mon.Sanitize(c.Lay.KernelLo-snp.PageSize, snp.PageSize) == nil {
		t.Fatal("sanitizer accepts a page below the kernel region")
	}
	image, m := signedModule(t, c, "mod6")
	frames := allocFrames(t, c, m.InstalledSize()/snp.PageSize)
	resp, err := loadViaStub(t, c, image, frames)
	if err != nil || resp.Status != core.StatusOK {
		t.Fatalf("load: %v %d", err, resp.Status)
	}
	if c.Mon.Sanitize(frames[0], snp.PageSize) == nil {
		t.Fatal("sanitizer accepts loaded module text")
	}
	if c.Mon.Sanitize(frames[len(frames)-1], snp.PageSize) != nil {
		t.Fatal("sanitizer refuses module data")
	}
	resp, err = c.Stub.CallSrv(core.Request{Svc: core.SvcKCI, Op: core.OpKciFree, Payload: resp.Payload})
	if err != nil || resp.Status != core.StatusOK {
		t.Fatalf("free: %v %d", err, resp.Status)
	}
	if c.Mon.Sanitize(frames[0], snp.PageSize) != nil {
		t.Fatal("sanitizer still refuses freed module text")
	}
}

func TestStagingOverflowRejected(t *testing.T) {
	c := bootVeil(t)
	// Feed more than the 8 MiB staging limit in chunks.
	junk := bytes.Repeat([]byte{0xFF}, core.IDCBPayloadMax)
	var refused bool
	for i := 0; i < (9<<20)/len(junk); i++ {
		resp, err := c.Stub.CallSrv(core.Request{Svc: core.SvcKCI, Op: core.OpKciStage, Payload: junk})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != core.StatusOK {
			refused = true
			break
		}
	}
	if !refused {
		t.Fatal("staging buffer grew without bound")
	}
}

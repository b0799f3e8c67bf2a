package enc_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/sdk"
	"veil/internal/services/enc"
	"veil/internal/snp"
)

func bootVeil(t *testing.T) *cvm.CVM {
	t.Helper()
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 32 << 20, VCPUs: 1, Veil: true, LogPages: 8,
		Rand: cvm.SeededRand(21),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rawFinalize issues OpEncFinalize directly through the stub with a
// registered no-op context, returning the response.
func rawFinalize(t *testing.T, c *cvm.CVM, token uint32, cr3, base, length, entry, ghcb uint64) core.Response {
	t.Helper()
	payload := make([]byte, 4+4+8*5)
	le := binary.LittleEndian
	le.PutUint32(payload[0:], token)
	le.PutUint32(payload[4:], 0)
	le.PutUint64(payload[8:], cr3)
	le.PutUint64(payload[16:], base)
	le.PutUint64(payload[24:], length)
	le.PutUint64(payload[32:], entry)
	le.PutUint64(payload[40:], ghcb)
	resp, err := c.Stub.CallSrv(core.Request{Svc: core.SvcENC, Op: core.OpEncFinalize, Payload: payload})
	if err != nil {
		t.Fatalf("finalize call: %v", err)
	}
	return resp
}

// prepProcess builds a process with an nPages region and a shared GHCB,
// returning (cr3, base, ghcb).
func prepProcess(t *testing.T, c *cvm.CVM, nPages uint64) (*kernel.Process, uint64, uint64, uint64) {
	t.Helper()
	p := c.K.Spawn("victim")
	base := uint64(kernel.UserBinBase)
	if err := p.MapRegion(base, nPages*snp.PageSize, kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec); err != nil {
		t.Fatal(err)
	}
	ghcb, err := c.K.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.K.SharePageWithHost(ghcb); err != nil {
		t.Fatal(err)
	}
	as, err := p.AddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	return p, as.CR3(), base, ghcb
}

func TestFinalizeRejectsDoubleMapping(t *testing.T) {
	c := bootVeil(t)
	p, cr3, base, ghcb := prepProcess(t, c, 4)
	// Malicious OS: remap page 1 to page 0's frame before finalize.
	as, _ := p.AddressSpace()
	frames, _ := p.RegionFrames(base)
	if _, err := as.Unmap(base + snp.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(base+snp.PageSize, frames[0], snp.PTEWrite|snp.PTEUser); err != nil {
		t.Fatal(err)
	}
	tok := registerToken(c)
	resp := rawFinalize(t, c, tok, cr3, base, 4*snp.PageSize, base, ghcb)
	if resp.Status != core.StatusDenied {
		t.Fatalf("double mapping finalize status = %d, want denied", resp.Status)
	}
}

// registerToken registers a trivial factory and returns the token.
var regSeq uint32 = 7000

func registerToken(c *cvm.CVM) uint32 {
	regSeq++
	tok := regSeq
	c.ENC.RegisterContext(tok, func(v enc.View) snp.Context {
		return snp.ContextFunc(func(snp.Reason) error { return nil })
	})
	return tok
}

func TestFinalizeRejectsHoleInRange(t *testing.T) {
	c := bootVeil(t)
	p, cr3, base, ghcb := prepProcess(t, c, 4)
	as, _ := p.AddressSpace()
	if _, err := as.Unmap(base + 2*snp.PageSize); err != nil {
		t.Fatal(err)
	}
	tok := registerToken(c)
	resp := rawFinalize(t, c, tok, cr3, base, 4*snp.PageSize, base, ghcb)
	if resp.Status != core.StatusDenied {
		t.Fatalf("holey finalize status = %d", resp.Status)
	}
	_ = p
}

func TestFinalizeRejectsPrivateGHCB(t *testing.T) {
	c := bootVeil(t)
	_, cr3, base, _ := prepProcess(t, c, 4)
	private, err := c.K.AllocFrame() // assigned page, not shared
	if err != nil {
		t.Fatal(err)
	}
	tok := registerToken(c)
	resp := rawFinalize(t, c, tok, cr3, base, 4*snp.PageSize, base, private)
	if resp.Status != core.StatusDenied {
		t.Fatalf("private-GHCB finalize status = %d", resp.Status)
	}
}

func TestFinalizeRejectsUnalignedGHCB(t *testing.T) {
	c := bootVeil(t)
	_, cr3, base, ghcb := prepProcess(t, c, 4)
	tok := registerToken(c)
	// A shared page, but no exit can use a GHCB inside it.
	resp := rawFinalize(t, c, tok, cr3, base, 4*snp.PageSize, base, ghcb+64)
	if resp.Status != core.StatusDenied {
		t.Fatalf("unaligned-GHCB finalize status = %d", resp.Status)
	}
}

func TestFinalizeRejectsBadGeometry(t *testing.T) {
	c := bootVeil(t)
	_, cr3, base, ghcb := prepProcess(t, c, 4)
	tok := registerToken(c)
	// Entry outside the region.
	if resp := rawFinalize(t, c, tok, cr3, base, 4*snp.PageSize, base+5*snp.PageSize, ghcb); resp.Status != core.StatusDenied {
		t.Fatalf("bad entry accepted: %d", resp.Status)
	}
	// Unaligned base.
	tok = registerToken(c)
	if resp := rawFinalize(t, c, tok, cr3, base+12, 4*snp.PageSize, base+12, ghcb); resp.Status != core.StatusDenied {
		t.Fatal("unaligned base accepted")
	}
	// Zero length.
	tok = registerToken(c)
	if resp := rawFinalize(t, c, tok, cr3, base, 0, base, ghcb); resp.Status != core.StatusDenied {
		t.Fatal("zero length accepted")
	}
}

func TestFinalizeRejectsOverlapWithOtherEnclave(t *testing.T) {
	c := bootVeil(t)
	// First enclave via the SDK.
	prog := sdkNopProgram()
	p1 := c.K.Spawn("app1")
	a1, err := sdk.LaunchEnclave(c, p1, prog, sdk.EnclaveConfig{RegionPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	_ = a1
	frames1, _ := p1.RegionFrames(kernel.UserBinBase)

	// Second process maps enclave 1's frame into its own tables (it can't
	// access it, but it can map it) and offers it as enclave memory.
	p2, cr32, base2, ghcb2 := prepProcess(t, c, 4)
	as2, _ := p2.AddressSpace()
	if _, err := as2.Unmap(base2); err != nil {
		t.Fatal(err)
	}
	if err := as2.Map(base2, frames1[0], snp.PTEWrite|snp.PTEUser); err != nil {
		t.Fatal(err)
	}
	tok := registerToken(c)
	resp := rawFinalize(t, c, tok, cr32, base2, 4*snp.PageSize, base2, ghcb2)
	if resp.Status != core.StatusDenied {
		t.Fatalf("overlapping enclave accepted: status %d", resp.Status)
	}
}

func sdkNopProgram() sdk.Program {
	return sdk.ProgramFunc(func(sdk.Libc, []string) int { return 0 })
}

func TestDemandPagingRoundTrip(t *testing.T) {
	c := bootVeil(t)
	prog := sdkNopProgram()
	p := c.K.Spawn("app")
	a, err := sdk.LaunchEnclave(c, p, prog, sdk.EnclaveConfig{
		RegionPages: 4,
		Image:       bytes.Repeat([]byte{0xAB}, 2*snp.PageSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	virt := uint64(kernel.UserBinBase) + snp.PageSize
	frames, _ := p.RegionFrames(kernel.UserBinBase)
	origFrame := frames[1]

	// Evict: the ciphertext body stays in the frame; the tag comes back.
	tag, err := c.ENC.PageFree(a.ID, virt)
	if err != nil {
		t.Fatal(err)
	}
	// The frame is back with the OS and holds ciphertext, not plaintext.
	body := make([]byte, snp.PageSize)
	if err := c.K.ReadPhys(origFrame, body); err != nil {
		t.Fatalf("OS read of released frame: %v", err)
	}
	if bytes.Contains(body, bytes.Repeat([]byte{0xAB}, 64)) {
		t.Fatal("released frame leaks plaintext")
	}
	// The enclave faults on the evicted page (recoverable #PF).
	encMem := a.Enclave().View().Mem
	if err := encMem.Read(virt, make([]byte, 8)); !snp.IsPF(err) {
		t.Fatalf("enclave access to evicted page = %v, want #PF", err)
	}

	// Restore: OS stages the body in a fresh frame and presents the tag.
	newFrame, err := c.K.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.K.WritePhys(newFrame, body); err != nil {
		t.Fatal(err)
	}
	if err := c.ENC.PageRestore(a.ID, virt, newFrame, tag); err != nil {
		t.Fatalf("restore: %v", err)
	}
	buf := make([]byte, 16)
	if err := encMem.Read(virt, buf); err != nil {
		t.Fatalf("enclave read after restore: %v", err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xAB}, 16)) {
		t.Fatalf("restored content %x", buf)
	}
	// And the OS has lost access to the new frame.
	if err := c.K.ReadPhys(newFrame, make([]byte, 8)); !snp.IsNPF(err) {
		t.Fatalf("OS read of restored frame = %v, want #NPF", err)
	}
}

func TestDemandPagingFreshnessAndIntegrity(t *testing.T) {
	c := bootVeil(t)
	prog := sdkNopProgram()
	p := c.K.Spawn("app")
	a, err := sdk.LaunchEnclave(c, p, prog, sdk.EnclaveConfig{
		RegionPages: 4, Image: []byte("v1 content")})
	if err != nil {
		t.Fatal(err)
	}
	virt := uint64(kernel.UserBinBase)
	frames, _ := p.RegionFrames(kernel.UserBinBase)

	grab := func(frame uint64) []byte {
		b := make([]byte, snp.PageSize)
		if err := c.K.ReadPhys(frame, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	// First eviction/restore cycle.
	tag1, err := c.ENC.PageFree(a.ID, virt)
	if err != nil {
		t.Fatal(err)
	}
	body1 := grab(frames[0])
	f1, _ := c.K.AllocFrame()
	if err := c.K.WritePhys(f1, body1); err != nil {
		t.Fatal(err)
	}
	if err := c.ENC.PageRestore(a.ID, virt, f1, tag1); err != nil {
		t.Fatal(err)
	}
	// Second eviction. The OS tries to replay the *old* image: rejected
	// by the freshness hash.
	if _, err := c.ENC.PageFree(a.ID, virt); err != nil {
		t.Fatal(err)
	}
	f2, _ := c.K.AllocFrame()
	if err := c.K.WritePhys(f2, body1); err != nil {
		t.Fatal(err)
	}
	if err := c.ENC.PageRestore(a.ID, virt, f2, tag1); err == nil {
		t.Fatal("stale page image accepted (replay)")
	}
}

func TestDemandPagingTamperRejected(t *testing.T) {
	c := bootVeil(t)
	prog := sdkNopProgram()
	p := c.K.Spawn("app")
	a, err := sdk.LaunchEnclave(c, p, prog, sdk.EnclaveConfig{
		RegionPages: 4, Image: []byte("content")})
	if err != nil {
		t.Fatal(err)
	}
	virt := uint64(kernel.UserBinBase)
	frames, _ := p.RegionFrames(kernel.UserBinBase)
	tag, err := c.ENC.PageFree(a.ID, virt)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, snp.PageSize)
	if err := c.K.ReadPhys(frames[0], body); err != nil {
		t.Fatal(err)
	}
	body[10] ^= 0xFF // attacker flips a ciphertext bit on "disk"
	f, _ := c.K.AllocFrame()
	if err := c.K.WritePhys(f, body); err != nil {
		t.Fatal(err)
	}
	if err := c.ENC.PageRestore(a.ID, virt, f, tag); err == nil {
		t.Fatal("tampered page image accepted")
	}
}

func TestSyncPermsRefusedOnEnclaveRange(t *testing.T) {
	c := bootVeil(t)
	prog := sdkNopProgram()
	p := c.K.Spawn("app")
	a, err := sdk.LaunchEnclave(c, p, prog, sdk.EnclaveConfig{RegionPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	err = c.ENC.SyncPermissions(a.ID, kernel.UserBinBase, snp.PageSize, 0)
	if err == nil {
		t.Fatal("OS changed enclave permissions via sync")
	}
}

func TestMeasureOverSecureChannel(t *testing.T) {
	c := bootVeil(t)
	prog := sdkNopProgram()
	p := c.K.Spawn("app")
	a, err := sdk.LaunchEnclave(c, p, prog, sdk.EnclaveConfig{RegionPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewRemoteUser(c.PSP.PublicKey(), c.ExpectedMeasurement(),
		cvm.SeededRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Connect(c.Stub); err != nil {
		t.Fatal(err)
	}
	msg := append([]byte{core.SvcENC}, []byte("MEASURE ")...)
	var id [4]byte
	binary.LittleEndian.PutUint32(id[:], a.ID)
	msg = append(msg, id[:]...)
	reply, err := user.Request(c.Stub, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, a.Measurement[:]) {
		t.Fatal("measurement over channel mismatch")
	}
}

// TestDemandPagingScratchReuse interleaves evictions of two pages so the
// second seal overwrites the service's reusable sealed-image scratch, then
// restores both: the returned tags must be independent copies (an aliased
// tag would fail the first restore's AEAD check), and both pages must come
// back with their original contents.
func TestDemandPagingScratchReuse(t *testing.T) {
	c := bootVeil(t)
	prog := sdkNopProgram()
	p := c.K.Spawn("app")
	a, err := sdk.LaunchEnclave(c, p, prog, sdk.EnclaveConfig{
		RegionPages: 4,
		Image:       append(bytes.Repeat([]byte{0xA1}, snp.PageSize), bytes.Repeat([]byte{0xB2}, snp.PageSize)...),
	})
	if err != nil {
		t.Fatal(err)
	}
	virt0 := uint64(kernel.UserBinBase)
	virt1 := virt0 + snp.PageSize
	frames, _ := p.RegionFrames(kernel.UserBinBase)

	grab := func(frame uint64) []byte {
		b := make([]byte, snp.PageSize)
		if err := c.K.ReadPhys(frame, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	tag0, err := c.ENC.PageFree(a.ID, virt0)
	if err != nil {
		t.Fatal(err)
	}
	body0 := grab(frames[0])
	tag1, err := c.ENC.PageFree(a.ID, virt1) // overwrites the seal scratch
	if err != nil {
		t.Fatal(err)
	}
	body1 := grab(frames[1])
	if bytes.Equal(tag0, tag1) {
		t.Fatal("distinct pages produced identical tags")
	}

	restore := func(virt uint64, body, tag []byte) {
		t.Helper()
		f, err := c.K.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.K.WritePhys(f, body); err != nil {
			t.Fatal(err)
		}
		if err := c.ENC.PageRestore(a.ID, virt, f, tag); err != nil {
			t.Fatalf("restore %#x: %v", virt, err)
		}
	}
	// Restore in reverse order: tag0 has survived a later seal AND a later
	// restore pass through the same scratch.
	restore(virt1, body1, tag1)
	restore(virt0, body0, tag0)
	encMem := a.Enclave().View().Mem
	for _, want := range []struct {
		virt uint64
		fill byte
	}{{virt0, 0xA1}, {virt1, 0xB2}} {
		buf := make([]byte, 32)
		if err := encMem.Read(want.virt, buf); err != nil {
			t.Fatalf("read %#x after restore: %v", want.virt, err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{want.fill}, len(buf))) {
			t.Fatalf("page %#x restored to %x, want all %#x", want.virt, buf, want.fill)
		}
	}
}

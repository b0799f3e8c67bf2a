package sdk

import (
	"encoding/binary"
	"fmt"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/snp"
)

// The Veil enclave kernel module (§7, ~700 lines of C in the paper): a
// character device whose ioctls create and destroy enclaves. It performs
// only the OS-side duties — allocating and laying out the region, copying
// the binary in, provisioning the user GHCB — and then hands off to
// VeilS-Enc for everything protection-relevant.

// DevicePath is the enclave control device node.
const DevicePath = "/dev/veil-enclave"

// Ioctl request codes.
const (
	ReqCreateEnclave  uint64 = 0xE1
	ReqDestroyEnclave uint64 = 0xE2
)

// createArgLen is the serialized size of the create request; the reply is
// written over the same buffer.
const createArgLen = 4 + 8 + 8 + 8 + 8 // token, imageVirt, imageLen, regionPages, entryOff

// createReplyLen is id u32 + ghcb u64 + measurement.
const createReplyLen = 4 + 8 + 32

type deviceState struct {
	c *cvm.CVM
	// ghcbFrames remembers the shared frame provisioned per enclave.
	ghcbFrames map[uint32]uint64
}

// InstallDevice registers the enclave device on a Veil CVM. Idempotent.
func InstallDevice(c *cvm.CVM) error {
	if !c.Veil() {
		return fmt.Errorf("sdk: enclave device requires a Veil CVM")
	}
	if _, err := c.K.VFS().Lookup(DevicePath); err == nil {
		return nil // already installed
	}
	st := &deviceState{c: c, ghcbFrames: make(map[uint32]uint64)}
	return c.K.RegisterDevice(DevicePath, st.ioctl)
}

func (st *deviceState) ioctl(p *kernel.Process, req uint64, arg []byte) (uint64, error) {
	switch req {
	case ReqCreateEnclave:
		return st.create(p, arg)
	case ReqDestroyEnclave:
		return st.destroy(p, arg)
	}
	return 0, kernel.ErrInval
}

// create installs the enclave region in the calling process and finalizes
// it through VeilS-Enc.
func (st *deviceState) create(p *kernel.Process, arg []byte) (uint64, error) {
	if len(arg) < createArgLen || len(arg) < createReplyLen {
		return 0, kernel.ErrInval
	}
	le := binary.LittleEndian
	token := le.Uint32(arg[0:])
	imageVirt := le.Uint64(arg[4:])
	imageLen := le.Uint64(arg[12:])
	regionPages := le.Uint64(arg[20:])
	entryOff := le.Uint64(arg[28:])

	k := st.c.K
	if regionPages == 0 || imageLen > regionPages*snp.PageSize || entryOff >= regionPages*snp.PageSize {
		return 0, kernel.ErrInval
	}

	// Copy the binary out of the caller's staging area.
	mem, err := p.Mem()
	if err != nil {
		return 0, err
	}
	image := make([]byte, imageLen)
	if err := mem.Read(imageVirt, image); err != nil {
		return 0, err
	}

	// Lay out the enclave region: binary + heap + stack, user rwx (the
	// protected tables, not these bits, are what the enclave runs on).
	base := uint64(kernel.UserBinBase)
	length := regionPages * snp.PageSize
	if err := p.MapRegion(base, length, kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec); err != nil {
		return 0, err
	}
	if err := mem.Write(base, image); err != nil {
		return 0, err
	}

	// Provision the enclave's GHCB: convert one kernel frame to a shared
	// page (through the delegated page-state path).
	ghcb, err := k.AllocFrame()
	if err != nil {
		return 0, err
	}
	if err := k.SharePageWithHost(ghcb); err != nil {
		return 0, err
	}

	// Finalize through VeilS-Enc.
	e := encodeFinalize(token, 0, mustCR3(p), base, length, base+entryOff, ghcb)
	resp, err := st.c.Stub.CallSrv(core.Request{Svc: core.SvcENC, Op: core.OpEncFinalize, Payload: e})
	if err != nil {
		return 0, err
	}
	if resp.Status != core.StatusOK || len(resp.Payload) != 36 {
		return 0, fmt.Errorf("sdk: enclave finalize failed (status %d)", resp.Status)
	}
	id := le.Uint32(resp.Payload)

	// Bind the enclave to the process so the kernel routes memory
	// operations correctly (§6.2).
	p.Enclave = &encBinding{id: id, base: base, length: length, stub: st.c.Stub}
	st.ghcbFrames[id] = ghcb

	le.PutUint32(arg[0:], id)
	le.PutUint64(arg[4:], ghcb)
	copy(arg[12:44], resp.Payload[4:36])
	return uint64(id), nil
}

func mustCR3(p *kernel.Process) uint64 {
	as, err := p.AddressSpace()
	if err != nil {
		return 0
	}
	return as.CR3()
}

func encodeFinalize(token uint32, vcpu uint32, cr3, base, length, entry, ghcb uint64) []byte {
	out := make([]byte, 4+4+8*5)
	le := binary.LittleEndian
	le.PutUint32(out[0:], token)
	le.PutUint32(out[4:], vcpu)
	le.PutUint64(out[8:], cr3)
	le.PutUint64(out[16:], base)
	le.PutUint64(out[24:], length)
	le.PutUint64(out[32:], entry)
	le.PutUint64(out[40:], ghcb)
	return out
}

// destroy tears the enclave down via VeilS-Enc and unmaps the region.
func (st *deviceState) destroy(p *kernel.Process, arg []byte) (uint64, error) {
	if len(arg) < 4 {
		return 0, kernel.ErrInval
	}
	id := binary.LittleEndian.Uint32(arg)
	payload := make([]byte, 4)
	binary.LittleEndian.PutUint32(payload, id)
	resp, err := st.c.Stub.CallSrv(core.Request{Svc: core.SvcENC, Op: core.OpEncDestroy, Payload: payload})
	if err != nil {
		return 0, err
	}
	if resp.Status != core.StatusOK {
		return 0, fmt.Errorf("sdk: enclave destroy failed")
	}
	p.Enclave = nil
	if err := p.UnmapRegion(kernel.UserBinBase); err != nil {
		return 0, err
	}
	// Return the GHCB frame to the pool; the allocator's unshare flow
	// re-assigns and validates it on next use.
	if ghcb, ok := st.ghcbFrames[id]; ok {
		if err := st.c.K.FreeFrame(ghcb); err != nil {
			return 0, err
		}
		delete(st.ghcbFrames, id)
	}
	return 0, nil
}

// encBinding implements kernel.EnclaveBinding: the OS-visible footprint of
// an installed enclave.
type encBinding struct {
	id     uint32
	base   uint64
	length uint64
	stub   *core.OSStub
}

// Covers implements kernel.EnclaveBinding.
func (b *encBinding) Covers(virt, length uint64) bool {
	if length == 0 {
		length = 1
	}
	return virt < b.base+b.length && b.base < virt+length
}

// SyncPermissions implements kernel.EnclaveBinding: non-enclave permission
// changes are mirrored into the protected tables by VeilS-Enc (§6.2).
func (b *encBinding) SyncPermissions(virt, length uint64, prot uint64) error {
	payload := make([]byte, 28)
	le := binary.LittleEndian
	le.PutUint32(payload[0:], b.id)
	le.PutUint64(payload[4:], virt)
	le.PutUint64(payload[12:], length)
	le.PutUint64(payload[20:], prot)
	resp, err := b.stub.CallSrv(core.Request{Svc: core.SvcENC, Op: core.OpEncSyncPerms, Payload: payload})
	if err != nil {
		return err
	}
	if resp.Status != core.StatusOK {
		return kernel.ErrInval
	}
	return nil
}

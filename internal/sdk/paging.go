package sdk

import (
	"encoding/binary"
	"fmt"

	"veil/internal/core"
	"veil/internal/kernel"
	"veil/internal/snp"
)

// The full §6.2 collaborative demand-paging loop, SDK-side:
//
//   OS memory pressure → EvictPage: VeilS-Enc seals the page (AES-GCM +
//   freshness hash), unmaps it from the protected tables and releases the
//   frame; the OS keeps the sealed image on "disk" (a VFS swap file).
//
//   Enclave touch → #PF in the protected tables → the runtime issues a
//   page-in OCALL → the OS reads the sealed image back, allocates a frame
//   and asks VeilS-Enc to verify freshness/integrity and re-map → the
//   enclave access retries and succeeds, transparently.

// Limitation (mirrors the paper's prototype notes): after pages have been
// swapped, the kernel's original region bookkeeping no longer matches the
// enclave's physical frames, so Destroy should precede any eviction-heavy
// teardown accounting; the protected side (VeilS-Enc) always stays
// consistent regardless.

// sysPageIn is the pseudo-syscall carrying an enclave page-in request.
const sysPageIn = 0xFA17

// swapPath names the OS-side store for one sealed enclave page.
func swapPath(id uint32, virt uint64) string {
	return fmt.Sprintf("/var/swap-enclave-%d-%x", id, virt)
}

// frameOf returns the OS's record of which physical frame backs an
// enclave virtual page — the tracking the paper says the OS keeps "like
// SGX" so remapping stays correct.
func (a *AppRuntime) frameOf(virt uint64) (uint64, error) {
	if a.frames == nil {
		a.frames = make(map[uint64]uint64)
		region, ok := a.P.RegionFrames(kernel.UserBinBase)
		if !ok {
			return 0, fmt.Errorf("sdk: no enclave region")
		}
		base := a.enclave.View().Base
		for i, f := range region {
			a.frames[base+uint64(i)*snp.PageSize] = f
		}
	}
	f, ok := a.frames[virt]
	if !ok {
		return 0, fmt.Errorf("sdk: no frame tracked for %#x", virt)
	}
	return f, nil
}

// EvictPage is the OS's memory-pressure action: ask VeilS-Enc to seal the
// page in place, then copy the ciphertext body (plus the returned AEAD
// tag) to the swap file. The frame then holds only ciphertext and is free
// for reuse.
func (a *AppRuntime) EvictPage(virt uint64) error {
	frame, err := a.frameOf(virt)
	if err != nil {
		return err
	}
	payload := make([]byte, 12)
	binary.LittleEndian.PutUint32(payload[0:], a.ID)
	binary.LittleEndian.PutUint64(payload[4:], virt)
	resp, err := a.C.Stub.CallSrv(core.Request{Svc: core.SvcENC, Op: core.OpEncPageFree, Payload: payload})
	if err != nil {
		return err
	}
	if resp.Status != core.StatusOK {
		return fmt.Errorf("sdk: evict refused (status %d)", resp.Status)
	}
	body := make([]byte, snp.PageSize)
	if err := a.C.K.ReadPhys(frame, body); err != nil {
		return err
	}
	fd, err := a.C.K.Open(a.P, swapPath(a.ID, virt), kernel.OCreat|kernel.OWronly|kernel.OTrunc, 0o600)
	if err != nil {
		return err
	}
	if _, err := a.C.K.Write(a.P, fd, append(body, resp.Payload...)); err != nil {
		return err
	}
	delete(a.frames, virt)
	return a.C.K.Close(a.P, fd)
}

// servePageIn handles the enclave's page-in OCALL: read the sealed image
// from swap, stage its body in a fresh frame, and ask VeilS-Enc to verify
// and re-map it.
func (a *AppRuntime) servePageIn(virt uint64) uint64 {
	k, p := a.C.K, a.P
	fd, err := k.Open(p, swapPath(a.ID, virt), kernel.ORdonly, 0)
	if err != nil {
		return errnoFor(err)
	}
	ct := make([]byte, snp.PageSize+64) // body + AEAD tag
	n, err := k.Read(p, fd, ct)
	k.Close(p, fd)
	if err != nil || n < snp.PageSize {
		return errnoFor(kernel.ErrInval)
	}
	frame, err := k.AllocFrame()
	if err != nil {
		return errnoFor(err)
	}
	if err := k.WritePhys(frame, ct[:snp.PageSize]); err != nil {
		return errnoFor(err)
	}
	payload := make([]byte, 20+(n-snp.PageSize))
	binary.LittleEndian.PutUint32(payload[0:], a.ID)
	binary.LittleEndian.PutUint64(payload[4:], virt)
	binary.LittleEndian.PutUint64(payload[12:], frame)
	copy(payload[20:], ct[snp.PageSize:n])
	resp, err := a.C.Stub.CallSrv(core.Request{Svc: core.SvcENC, Op: core.OpEncPageRestore, Payload: payload})
	if err != nil {
		return errnoFor(err)
	}
	if resp.Status != core.StatusOK {
		return 5 // EIO: integrity/freshness verification failed
	}
	if a.frames != nil {
		a.frames[virt] = frame
	}
	// The sealed image is single-use (freshness): drop the swap entry.
	_ = k.Unlink(p, swapPath(a.ID, virt))
	return 0
}

// pageIn issues the page-in OCALL from inside the enclave.
func (e *EnclaveRuntime) pageIn(virt uint64) error {
	if err := e.submit(sysPageIn, []ocallArg{{val: virt}}, 1); err != nil {
		return err
	}
	if err := e.exitForSyscall(); err != nil {
		return err
	}
	_, errno, err := e.reply()
	if err != nil {
		return err
	}
	return errFor(errno)
}

// withPaging retries an enclave-memory access across demand-paging faults:
// a #PF inside the enclave range triggers the collaborative page-in path.
func (e *EnclaveRuntime) withPaging(fn func() error) error {
	for tries := 0; tries < 4; tries++ {
		err := fn()
		f, isFault := snp.AsFault(err)
		if !isFault || f.Kind != snp.FaultPF ||
			f.Virt < e.view.Base || f.Virt >= e.view.Base+e.view.Length {
			return err
		}
		if perr := e.pageIn(snp.PageBase(f.Virt)); perr != nil {
			return fmt.Errorf("sdk: page-in of %#x failed: %w", f.Virt, perr)
		}
	}
	return fmt.Errorf("sdk: page-in loop did not converge")
}

// ReadMem reads enclave memory (heap, data) with transparent demand paging.
func (e *EnclaveRuntime) ReadMem(virt uint64, buf []byte) error {
	return e.withPaging(func() error { return e.view.Mem.Read(virt, buf) })
}

// WriteMem writes enclave memory with transparent demand paging.
func (e *EnclaveRuntime) WriteMem(virt uint64, buf []byte) error {
	return e.withPaging(func() error { return e.view.Mem.Write(virt, buf) })
}

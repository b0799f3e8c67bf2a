package enc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"veil/internal/core"
	"veil/internal/snp"
)

// Secure collaborative memory management (§6.2): the OS decides *when* to
// evict and refill enclave pages (it owns physical memory), but VeilS-Enc
// performs every protection-relevant step — encryption, integrity hashing
// with a freshness counter, and all edits to the protected page tables.

// aead returns the per-enclave AES-256-GCM instance, built once on first
// use (the key is fixed at enclave creation) — the AES key schedule and
// GCM table setup are far more expensive than a single page seal.
func (e *Enclave) aead() (cipher.AEAD, error) {
	if e.gcm != nil {
		return e.gcm, nil
	}
	block, err := aes.NewCipher(e.key[:])
	if err != nil {
		return nil, err
	}
	e.gcm, err = cipher.NewGCM(block)
	return e.gcm, err
}

// pageNonce fills n (the caller's stack array, sized to GCM's standard
// 12-byte nonce) with the page address and its freshness counter — unique
// per (page, eviction) pair.
func pageNonce(n []byte, virt, counter uint64) []byte {
	binary.LittleEndian.PutUint64(n[0:], virt)
	binary.LittleEndian.PutUint32(n[8:], uint32(counter))
	return n
}

// servePageFree handles OpEncPageFree (payload: id u32, virt u64). The
// sealed page body stays in the released frame (it no longer fits an IDCB
// and never needs to); the response carries only the AEAD tag the OS must
// keep alongside its on-disk copy.
func (s *Service) servePageFree(payload []byte) (uint32, []byte) {
	if len(payload) != 12 {
		return core.StatusError, nil
	}
	id := binary.LittleEndian.Uint32(payload[0:])
	virt := binary.LittleEndian.Uint64(payload[4:])
	tag, err := s.PageFree(id, virt)
	if err != nil {
		return core.StatusDenied, nil
	}
	return core.StatusOK, tag
}

// PageFree evicts one enclave page: seal its contents *in place* (the
// ciphertext body overwrites the frame, so the plaintext never becomes
// OS-visible), record integrity hash + freshness, unmap it from the
// protected tables, and hand the frame back to the OS. The returned AEAD
// tag accompanies the body to disk.
func (s *Service) PageFree(id uint32, virt uint64) ([]byte, error) {
	e, ok := s.Enclave(id)
	if !ok {
		return nil, fmt.Errorf("enc: no enclave %d", id)
	}
	st, ok := e.pages[virt]
	if !ok || !st.present {
		return nil, fmt.Errorf("enc: page %#x not present", virt)
	}
	m := s.mon.Machine()
	phys := e.frames[virt]

	src, err := m.Span(snp.VMPL1, snp.CPL0, phys, snp.PageSize, snp.AccessRead)
	if err != nil {
		return nil, err
	}
	aead, err := e.aead()
	if err != nil {
		return nil, err
	}
	st.counter++
	// Seal reads the frame in place (the plaintext never crosses into a
	// service-side staging buffer) and writes into the service's reusable
	// sealed-image scratch: PageFree/PageRestore run strictly one at a
	// time, and nothing below retains ct past the return (the tag is
	// copied out).
	if cap(s.sealBuf) < snp.PageSize+aead.Overhead() {
		s.sealBuf = make([]byte, 0, snp.PageSize+aead.Overhead())
	}
	var nb [12]byte
	ct := aead.Seal(s.sealBuf[:0], pageNonce(nb[:], virt, st.counter), src, idAAD(id))
	s.sealBuf = ct[:0]
	st.hash = sha256.Sum256(ct)
	st.present = false
	m.Clock().Charge(snp.CostPageEncrypt, snp.CyclesPageEncrypt4K)
	m.Clock().Charge(snp.CostPageHash, snp.CyclesPageHash4K)

	// Ciphertext body replaces the plaintext in the frame.
	dst, err := m.Span(snp.VMPL1, snp.CPL0, phys, snp.PageSize, snp.AccessWrite)
	if err != nil {
		return nil, err
	}
	copy(dst, ct[:snp.PageSize])
	m.Clock().Charge(snp.CostPageCopy, snp.CyclesPageCopy4K)

	// Unmap from the protected tables, then release the frame to Dom-UNT.
	if _, err := e.clone.Unmap(virt); err != nil {
		return nil, err
	}
	if err := m.RMPAdjust(snp.VMPL1, phys, snp.VMPL3, core.KernelDataPerms); err != nil {
		return nil, err
	}
	s.mon.UnprotectLabel(fmt.Sprintf("enclave-%d", id))
	delete(s.allFrames, phys)
	delete(e.frames, virt)
	if err := s.reprotect(e); err != nil {
		return nil, err
	}
	// Copy the tag out of the scratch: callers hold it until the page is
	// restored, long after the next seal has overwritten the buffer.
	tag := make([]byte, len(ct)-snp.PageSize)
	copy(tag, ct[snp.PageSize:])
	return tag, nil
}

// servePageRestore handles OpEncPageRestore (payload: id u32, virt u64,
// frame u64, AEAD tag). The OS stages the ciphertext body in the frame
// itself before the call.
func (s *Service) servePageRestore(payload []byte) (uint32, []byte) {
	if len(payload) < 20 {
		return core.StatusError, nil
	}
	id := binary.LittleEndian.Uint32(payload[0:])
	virt := binary.LittleEndian.Uint64(payload[4:])
	frame := binary.LittleEndian.Uint64(payload[12:])
	if err := s.PageRestore(id, virt, frame, payload[20:]); err != nil {
		return core.StatusDenied, nil
	}
	return core.StatusOK, nil
}

// PageRestore re-maps a previously evicted page after verifying the OS
// returned exactly the latest sealed image (integrity + freshness). The
// ciphertext body is read from the staged frame; tag is its AEAD tag.
func (s *Service) PageRestore(id uint32, virt, frame uint64, tag []byte) error {
	e, ok := s.Enclave(id)
	if !ok {
		return fmt.Errorf("enc: no enclave %d", id)
	}
	st, ok := e.pages[virt]
	if !ok || st.present {
		return fmt.Errorf("enc: page %#x not evicted", virt)
	}
	m := s.mon.Machine()

	// Sanitize the OS-chosen frame (§8.1) and check disjointness.
	if s.mon.Sanitize(frame, snp.PageSize) != nil {
		return errDenied
	}
	if _, taken := s.allFrames[frame]; taken {
		return errDenied
	}

	// Reassemble the sealed image from the staged body + tag. GCM needs the
	// ciphertext contiguous, so this one staging copy stays — into the
	// service's reusable scratch (fully consumed by the Open call below).
	if cap(s.sealBuf) < snp.PageSize+len(tag) {
		s.sealBuf = make([]byte, 0, snp.PageSize+len(tag))
	}
	ct := s.sealBuf[:snp.PageSize+len(tag)]
	body, err := m.Span(snp.VMPL1, snp.CPL0, frame, snp.PageSize, snp.AccessRead)
	if err != nil {
		return err
	}
	copy(ct, body)
	copy(ct[snp.PageSize:], tag)
	m.Clock().Charge(snp.CostPageCopy, snp.CyclesPageCopy4K)

	// Freshness + integrity: hash must match the *latest* eviction.
	if sha256.Sum256(ct) != st.hash {
		return fmt.Errorf("enc: stale or corrupt page image for %#x", virt)
	}
	aead, err := e.aead()
	if err != nil {
		return err
	}
	dst, err := m.Span(snp.VMPL1, snp.CPL0, frame, snp.PageSize, snp.AccessWrite)
	if err != nil {
		return err
	}
	// Decrypt straight into the frame. The capped destination (len 0, cap
	// exactly one page) means GCM can never append past the frame, and the
	// hash check above already pinned len(ct) to one sealed page image.
	var nb [12]byte
	if _, err := aead.Open(dst[:0:snp.PageSize], pageNonce(nb[:], virt, st.counter), ct, idAAD(id)); err != nil {
		return fmt.Errorf("enc: page decrypt failed: %w", err)
	}
	m.Clock().Charge(snp.CostPageEncrypt, snp.CyclesPageEncrypt4K)
	m.Clock().Charge(snp.CostPageHash, snp.CyclesPageHash4K)
	if err := m.RMPAdjust(snp.VMPL1, frame, snp.VMPL3, snp.PermNone); err != nil {
		return err
	}
	if err := e.clone.Map(virt, frame, st.flags&^snp.PTEPresent); err != nil {
		return err
	}
	st.present = true
	e.frames[virt] = frame
	s.allFrames[frame] = id
	return s.reprotect(e)
}

// reprotect rebuilds the protected-region registration for an enclave
// after its frame set changed.
func (s *Service) reprotect(e *Enclave) error {
	label := fmt.Sprintf("enclave-%d", e.id)
	s.mon.UnprotectLabel(label)
	var phys []uint64
	for _, p := range e.frames {
		phys = append(phys, p)
	}
	return s.mon.ProtectPages(phys, label)
}

func idAAD(id uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], id)
	return b[:]
}

// serveSyncPerms handles OpEncSyncPerms (payload: id u32, virt u64,
// len u64, prot u64): the OS changed permissions on a *non-enclave* region
// and the protected tables must mirror it so the enclave's view stays
// coherent (§6.2).
func (s *Service) serveSyncPerms(payload []byte) (uint32, []byte) {
	if len(payload) != 28 {
		return core.StatusError, nil
	}
	id := binary.LittleEndian.Uint32(payload[0:])
	virt := binary.LittleEndian.Uint64(payload[4:])
	length := binary.LittleEndian.Uint64(payload[12:])
	prot := binary.LittleEndian.Uint64(payload[20:])
	if err := s.SyncPermissions(id, virt, length, prot); err != nil {
		return core.StatusDenied, nil
	}
	return core.StatusOK, nil
}

// SyncPermissions mirrors an OS permission change for non-enclave memory.
func (s *Service) SyncPermissions(id uint32, virt, length uint64, prot uint64) error {
	e, ok := s.Enclave(id)
	if !ok {
		return fmt.Errorf("enc: no enclave %d", id)
	}
	if overlaps(virt, length, e.base, e.length) {
		return errDenied // the OS may not touch enclave permissions
	}
	return e.applyProt(virt, length, prot)
}

// EnclaveProtect is the enclave-initiated permission change: requests
// arrive from the enclave through its GHCB (§6.2), modelled as a charged
// domain-switch round trip into Dom-SRV.
func (s *Service) EnclaveProtect(id uint32, virt, length uint64, prot uint64) error {
	e, ok := s.Enclave(id)
	if !ok {
		return fmt.Errorf("enc: no enclave %d", id)
	}
	if !containedIn(virt, length, e.base, e.length) {
		return errDenied // enclaves change only their own pages this way
	}
	s.mon.ChargeServiceSwitch()
	return e.applyProt(virt, length, prot)
}

func (e *Enclave) applyProt(virt, length uint64, prot uint64) error {
	length = (length + snp.PageSize - 1) &^ uint64(snp.PageSize-1)
	flags := uint64(snp.PTEUser)
	if prot&2 != 0 { // PROT_WRITE
		flags |= snp.PTEWrite
	}
	if prot&4 == 0 { // !PROT_EXEC
		flags |= snp.PTENX
	}
	for off := uint64(0); off < length; off += snp.PageSize {
		if err := e.clone.Protect(virt+off, flags); err != nil {
			return err
		}
	}
	return nil
}

func overlaps(aLo, aLen, bLo, bLen uint64) bool {
	return aLo < bLo+bLen && bLo < aLo+aLen
}

func containedIn(aLo, aLen, bLo, bLen uint64) bool {
	return aLo >= bLo && aLo+aLen <= bLo+bLen
}

// serveDestroy handles OpEncDestroy (payload: id u32).
func (s *Service) serveDestroy(payload []byte) (uint32, []byte) {
	if len(payload) != 4 {
		return core.StatusError, nil
	}
	id := binary.LittleEndian.Uint32(payload)
	if err := s.Destroy(id); err != nil {
		return core.StatusError, nil
	}
	return core.StatusOK, nil
}

// Destroy tears an enclave down: scrub and release its pages back to the
// OS, free the protected tables and the Dom-ENC VMSA.
func (s *Service) Destroy(id uint32) error {
	e, ok := s.Enclave(id)
	if !ok {
		return fmt.Errorf("enc: no enclave %d", id)
	}
	m := s.mon.Machine()
	for virt, phys := range e.frames {
		// Scrub before release: enclave secrets never reach the OS.
		span, err := m.Span(snp.VMPL1, snp.CPL0, phys, snp.PageSize, snp.AccessWrite)
		if err != nil {
			return err
		}
		clear(span)
		if err := m.RMPAdjust(snp.VMPL1, phys, snp.VMPL3, core.KernelDataPerms); err != nil {
			return err
		}
		delete(s.allFrames, phys)
		delete(e.frames, virt)
	}
	if err := s.mon.DestroyEnclaveVCPU(e.vcpu, e.tag); err != nil {
		return err
	}
	if err := e.clone.Release(); err != nil {
		return err
	}
	s.mon.UnprotectLabel(fmt.Sprintf("enclave-%d", id))
	e.destroyed = true
	delete(s.enclaves, id)
	return nil
}

// Package enc implements VeilS-Enc, Veil's shielded-program-execution
// service (§6.2): SGX-style enclaves *inside* the CVM, protected from both
// the hypervisor (by SEV-SNP) and the operating system (by VMPL).
//
// The operating system installs an enclave's initial memory in a process
// and then invokes this service, which (a) walks and clones the process
// page tables into protected memory, (b) checks the two §6.2 invariants —
// injective virtual→physical mapping, and physical pages disjoint from
// every other enclave —, (c) revokes all Dom-UNT access to enclave memory,
// (d) measures contents plus metadata for remote attestation, and (e) has
// VeilMon mint a Dom-ENC (VMPL2+CPL3) VCPU replica entered through a
// user-mapped GHCB. Demand paging and permission changes stay collaborative
// with the OS, but every page-table write happens here.
package enc

import (
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"veil/internal/core"
	"veil/internal/hv"
	"veil/internal/mm"
	"veil/internal/snp"
)

// maxEnclavePages bounds a single enclave's size (2^16 pages = 256 MiB).
const maxEnclavePages = 1 << 16

// ContextFactory builds the hv context that stands in for the enclave's
// code (the SDK's trusted runtime); it receives the finalized view.
type ContextFactory func(View) snp.Context

// View is what the trusted enclave runtime gets to work with.
type View struct {
	ID     uint32
	Tag    uint64
	VCPU   int
	Mem    snp.AccessContext // VMPL2 + CPL3 through the protected tables
	GHCB   uint64
	Entry  uint64
	Base   uint64
	Length uint64
}

type pageState struct {
	present bool
	flags   uint64
	counter uint64   // freshness: bumped at every page-out
	hash    [32]byte // integrity hash of the *encrypted* image
}

// Enclave is the service-side record of one enclave.
type Enclave struct {
	id     uint32
	tag    uint64
	vcpu   int
	base   uint64
	length uint64
	entry  uint64
	ghcb   uint64

	clone  *mm.AddressSpace
	frames map[uint64]uint64 // virt → phys for enclave pages
	pages  map[uint64]*pageState
	meas   [32]byte
	key    [32]byte
	// gcm caches the AEAD built from key (fixed at creation) so the AES
	// key schedule is paid once per enclave, not once per page operation.
	gcm  cipher.AEAD
	vmsa uint64

	destroyed bool
}

// Service is a VeilS-Enc instance.
type Service struct {
	mon *core.Monitor
	hyp *hv.Hypervisor

	enclaves  map[uint32]*Enclave
	next      uint32
	allFrames map[uint64]uint32 // phys → owning enclave (invariant 2)
	factories map[uint32]ContextFactory
	rand      io.Reader

	// sealBuf is the reusable sealed-page scratch of the paging path: one
	// PageSize+tag image, alive only within a single PageFree/PageRestore
	// (the returned tag is copied out, never aliased into it).
	sealBuf []byte
}

// New creates the service and registers it with VeilMon.
func New(mon *core.Monitor, rng io.Reader) *Service {
	s := &Service{
		mon:       mon,
		hyp:       mon.Hypervisor(),
		enclaves:  make(map[uint32]*Enclave),
		next:      1,
		allFrames: make(map[uint64]uint32),
		factories: make(map[uint32]ContextFactory),
		rand:      rng,
	}
	mon.RegisterService(core.SvcENC, s.handle)
	mon.RegisterSecureService(core.SvcENC, s.secure)
	return s
}

// RegisterContext wires the trusted runtime for an enclave about to be
// finalized: token identifies the pending registration (it rides through
// the untrusted finalize request; a mismatch just fails finalization).
func (s *Service) RegisterContext(token uint32, f ContextFactory) {
	s.factories[token] = f
}

// serviceFrames adapts the monitor's service-frame API to mm.FrameSource
// for the protected page-table clones.
type serviceFrames struct{ mon *core.Monitor }

func (a serviceFrames) AllocFrame() (uint64, error) { return a.mon.AllocServiceFrame() }
func (a serviceFrames) FreeFrame(p uint64) error    { return a.mon.FreeServiceFrame(p) }

func (s *Service) handle(vcpu int, op uint8, payload []byte) (uint32, []byte) {
	switch op {
	case core.OpEncFinalize:
		return s.serveFinalize(payload)
	case core.OpEncSyncPerms:
		return s.serveSyncPerms(payload)
	case core.OpEncPageFree:
		return s.servePageFree(payload)
	case core.OpEncPageRestore:
		return s.servePageRestore(payload)
	case core.OpEncDestroy:
		return s.serveDestroy(payload)
	}
	return core.StatusError, nil
}

// serveFinalize implements enclave finalization (§6.2 "Enclave
// initialization and measurement"). Payload: token u32, vcpu u32, cr3 u64,
// base u64, length u64, entry u64, ghcb u64.
func (s *Service) serveFinalize(payload []byte) (uint32, []byte) {
	if len(payload) != 4+4+8*5 {
		return core.StatusError, nil
	}
	le := binary.LittleEndian
	token := le.Uint32(payload[0:])
	vcpu := int(le.Uint32(payload[4:]))
	cr3 := le.Uint64(payload[8:])
	base := le.Uint64(payload[16:])
	length := le.Uint64(payload[24:])
	entry := le.Uint64(payload[32:])
	ghcb := le.Uint64(payload[40:])

	factory, ok := s.factories[token]
	if !ok {
		return core.StatusError, nil
	}
	delete(s.factories, token)

	e, err := s.finalize(vcpu, cr3, base, length, entry, ghcb, factory)
	if err != nil {
		if err == errDenied {
			return core.StatusDenied, nil
		}
		return core.StatusError, nil
	}
	out := make([]byte, 4+32)
	le.PutUint32(out, e.id)
	copy(out[4:], e.meas[:])
	return core.StatusOK, out
}

var errDenied = fmt.Errorf("enc: request denied")

func (s *Service) finalize(vcpu int, cr3, base, length, entry, ghcb uint64, factory ContextFactory) (*Enclave, error) {
	m := s.mon.Machine()

	// Sanitize the untrusted inputs (§8.1).
	if s.mon.Sanitize(cr3, snp.PageSize) != nil {
		return nil, errDenied
	}
	if base%snp.PageSize != 0 || length == 0 || length%snp.PageSize != 0 ||
		length/snp.PageSize > maxEnclavePages {
		return nil, errDenied
	}
	if entry < base || entry >= base+length {
		return nil, errDenied
	}
	// The GHCB must be a truly shared page: if the OS hands over a private
	// page the hypervisor cannot read it and every switch would crash; an
	// unaligned address names no GHCB any exit can use.
	if ge, err := m.RMPEntryAt(ghcb); err != nil || ge.Assigned || snp.PageOffset(ghcb) != 0 {
		return nil, errDenied
	}

	// Walk the process tables the OS built.
	mappings, err := walkUserMappings(m, cr3)
	if err != nil {
		return nil, err
	}

	e := &Enclave{
		id: s.next, vcpu: vcpu, base: base, length: length,
		entry: entry, ghcb: ghcb,
		frames: make(map[uint64]uint64),
		pages:  make(map[uint64]*pageState),
	}
	e.tag = 100 + uint64(e.id)

	// Invariant checks over the enclave range (§6.2): fully mapped,
	// injective, and disjoint from every other enclave.
	seenPhys := make(map[uint64]bool)
	for virt := base; virt < base+length; virt += snp.PageSize {
		mp, ok := mappings[virt]
		if !ok {
			return nil, errDenied // hole in the enclave range
		}
		if seenPhys[mp.phys] {
			return nil, errDenied // malicious double mapping
		}
		seenPhys[mp.phys] = true
		if owner, taken := s.allFrames[mp.phys]; taken {
			_ = owner
			return nil, errDenied // overlaps another enclave
		}
		if s.mon.Sanitize(mp.phys, snp.PageSize) != nil {
			return nil, errDenied
		}
		e.frames[virt] = mp.phys
		e.pages[virt] = &pageState{present: true, flags: mp.flags}
	}

	// Clone the whole process address space into protected tables; the
	// enclave runs on the clone, so later OS edits to its own tables
	// cannot change what the enclave sees.
	clone, err := mm.NewAddressSpace(m, snp.VMPL1, serviceFrames{s.mon})
	if err != nil {
		return nil, err
	}
	for virt, mp := range mappings {
		if err := clone.Map(virt, mp.phys, mp.flags&^snp.PTEPresent); err != nil {
			return nil, err
		}
	}
	e.clone = clone

	// Measure contents + metadata page by page, in address order. The hash
	// reads each frame in place through a read span — no staging copy.
	h := sha256.New()
	for virt := base; virt < base+length; virt += snp.PageSize {
		phys := e.frames[virt]
		span, err := m.Span(snp.VMPL1, snp.CPL0, phys, snp.PageSize, snp.AccessRead)
		if err != nil {
			return nil, err
		}
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[0:], virt)
		binary.LittleEndian.PutUint64(hdr[8:], e.pages[virt].flags)
		h.Write(hdr[:])
		h.Write(span)
		m.Clock().Charge(snp.CostPageHash, snp.CyclesPageHash4K)
	}
	copy(e.meas[:], h.Sum(nil))

	// Revoke every Dom-UNT permission on enclave memory; Dom-ENC keeps
	// the rw+user-exec grant from the boot sweep. The sweep walks virtual
	// addresses ascending so runs are reproducible page-for-page.
	virts := make([]uint64, 0, len(e.frames))
	for virt := range e.frames {
		virts = append(virts, virt)
	}
	sort.Slice(virts, func(i, j int) bool { return virts[i] < virts[j] })
	for _, virt := range virts {
		if err := m.RMPAdjust(snp.VMPL1, e.frames[virt], snp.VMPL3, snp.PermNone); err != nil {
			return nil, err
		}
	}

	// Per-enclave paging key.
	if _, err := io.ReadFull(s.randReader(), e.key[:]); err != nil {
		return nil, err
	}

	// Protect the frames in the monitor's registry so sanitizers refuse
	// OS pointers into them. The clone's tables are monitor-heap frames,
	// which the sanitizer refuses anyway.
	physList := make([]uint64, 0, len(virts))
	for _, virt := range virts {
		physList = append(physList, e.frames[virt])
	}
	if err := s.mon.ProtectPages(physList, fmt.Sprintf("enclave-%d", e.id)); err != nil {
		return nil, err
	}

	// Dom-ENC VCPU replica entered at the enclave's entry point, running
	// on the protected clone tables.
	view := View{
		ID: e.id, Tag: e.tag, VCPU: vcpu,
		Mem:  snp.AccessContext{M: m, VMPL: snp.VMPL2, CPL: snp.CPL3, CR3: clone.CR3()},
		GHCB: ghcb, Entry: entry, Base: base, Length: length,
	}
	vmsa, err := s.mon.CreateEnclaveVCPU(vcpu, e.tag, clone.CR3(), entry, factory(view))
	if err != nil {
		return nil, err
	}
	e.vmsa = vmsa

	// Instruct the hypervisor: this user GHCB may only switch between the
	// untrusted domain and this enclave (§6.2).
	s.hyp.SetGHCBPolicy(ghcb, hv.DomainTag(e.tag), hv.DomainTag(core.DomUNT))

	for _, p := range e.frames {
		s.allFrames[p] = e.id
	}
	s.enclaves[e.id] = e
	s.next++
	return e, nil
}

func (s *Service) randReader() io.Reader {
	if s.rand != nil {
		return s.rand
	}
	return zeroReader{} // deterministic fallback for tests without rng
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0x5a
	}
	return len(p), nil
}

type mapping struct {
	phys  uint64
	flags uint64
}

// walkUserMappings reads a 4-level table tree as Dom-SRV software and
// returns every present leaf. The walk itself is bounded so a hostile tree
// cannot wedge the service.
func walkUserMappings(m *snp.Machine, cr3 uint64) (map[uint64]mapping, error) {
	out := make(map[uint64]mapping)
	var walk func(table uint64, level int, virtBase uint64) error
	walk = func(table uint64, level int, virtBase uint64) error {
		// One span per table page instead of 512 single-entry copies.
		tbl, err := m.Span(snp.VMPL1, snp.CPL0, snp.PageBase(table), snp.PageSize, snp.AccessRead)
		if err != nil {
			return err
		}
		for idx := uint64(0); idx < 512; idx++ {
			pte := binary.LittleEndian.Uint64(tbl[idx*8:])
			if pte&snp.PTEPresent == 0 {
				continue
			}
			virt := virtBase | idx<<(snp.PageShift+9*uint(level))
			if level == 0 {
				if len(out) >= maxEnclavePages*4 {
					return fmt.Errorf("enc: process tables too large")
				}
				out[virt] = mapping{phys: snp.PTEAddr(pte), flags: pte &^ snp.PTEAddrMask}
				continue
			}
			if err := walk(snp.PTEAddr(pte), level-1, virt); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(snp.PageBase(cr3), snp.PTLevels-1, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// Enclave returns a live enclave record (service-internal and tests).
func (s *Service) Enclave(id uint32) (*Enclave, bool) {
	e, ok := s.enclaves[id]
	if !ok || e.destroyed {
		return nil, false
	}
	return e, true
}

// Measurement returns an enclave's launch measurement.
func (s *Service) Measurement(id uint32) ([32]byte, bool) {
	e, ok := s.Enclave(id)
	if !ok {
		return [32]byte{}, false
	}
	return e.meas, true
}

// secure serves remote-user commands over the monitor channel:
// "MEASURE <id-u32-le>" returns the 32-byte enclave measurement.
func (s *Service) secure(msg []byte) ([]byte, error) {
	if len(msg) == 12 && string(msg[:8]) == "MEASURE " {
		id := binary.LittleEndian.Uint32(msg[8:])
		meas, ok := s.Measurement(id)
		if !ok {
			return nil, fmt.Errorf("enc: no enclave %d", id)
		}
		return meas[:], nil
	}
	return nil, fmt.Errorf("enc: unknown command")
}

// ChargeEnclaveExit accounts one enclave→untrusted transition in the trace
// (the exit-rate metric of Fig. 5).
func (s *Service) ChargeEnclaveExit() {
	s.mon.Machine().ObserveEnclaveExit()
}

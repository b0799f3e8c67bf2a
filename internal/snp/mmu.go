package snp

import (
	"encoding/binary"
	"fmt"
)

// Guest page tables use a 4-level x86-64-style format with 48-bit virtual
// addresses. Entries are 64-bit words stored in guest physical pages:
//
//	bit 0      present
//	bit 1      writable
//	bit 2      user-accessible
//	bits 12-51 physical frame address
//	bit 63     no-execute
//
// The hardware page-table walker reads table pages directly (it is not a
// software access and is not subject to RMP permission vectors); RMP
// protection of page-table pages matters for *software* reads and writes of
// the tables, which is exactly the attack §8.3 validates against.
const (
	PTEPresent  uint64 = 1 << 0
	PTEWrite    uint64 = 1 << 1
	PTEUser     uint64 = 1 << 2
	PTENX       uint64 = 1 << 63
	PTEAddrMask uint64 = 0x000F_FFFF_FFFF_F000
)

// PTLevels is the number of page-table levels.
const PTLevels = 4

// ptIndexBits is the number of virtual-address bits consumed per level.
const ptIndexBits = 9

// VirtBits is the implemented virtual address width.
const VirtBits = PTLevels*ptIndexBits + PageShift // 48

// MakePTE builds a leaf (or intermediate) entry pointing at phys.
func MakePTE(phys uint64, flags uint64) uint64 {
	return (phys & PTEAddrMask) | flags
}

// PTEAddr extracts the physical address from an entry.
func PTEAddr(pte uint64) uint64 { return pte & PTEAddrMask }

// ptIndex returns the table index for virt at the given level
// (level 3 = root, level 0 = leaf).
func ptIndex(virt uint64, level int) uint64 {
	return (virt >> (PageShift + ptIndexBits*level)) & ((1 << ptIndexBits) - 1)
}

// AccessContext is a software execution context's view of memory: a VMPL, a
// ring, and a page-table root. All simulated software uses it for loads,
// stores and fetch checks, so both the PTE checks (CPL view) and the RMP
// checks (VMPL view) are enforced on every access.
type AccessContext struct {
	M    *Machine
	VMPL VMPL
	CPL  CPL
	CR3  uint64 // physical address of the root table page
}

func (a AccessContext) String() string {
	return fmt.Sprintf("ctx(%s,%s,cr3=%#x)", a.VMPL, a.CPL, a.CR3)
}

// readPTE performs the hardware walker's read of a table entry, marking the
// table page as translation-relevant so later software writes to it
// invalidate the translations that walked through it. The returned tlbDep
// versions the read for the TLB.
func (a AccessContext) readPTE(tablePhys uint64, idx uint64) (uint64, tlbDep, error) {
	pi, err := a.M.pageIndex(tablePhys)
	if err != nil {
		return 0, tlbDep{}, fmt.Errorf("snp: page-table page out of range: %w", err)
	}
	gen := a.M.notePTPage(pi)
	page := a.M.rawPage(pi)
	return binary.LittleEndian.Uint64(page[idx*8:]), tlbDep{pi: uint32(pi), gen: gen}, nil
}

// walk runs the 4-level hardware walk for virt, returning the leaf frame,
// the permissions accumulated across levels like x86 does (an access needs
// the relevant bit at every level), and the versioned table pages the walk
// read.
func (a AccessContext) walk(virt uint64, acc Access) (physPage, eff uint64, effNX bool, deps [PTLevels]tlbDep, err error) {
	table := PageBase(a.CR3)
	eff = PTEWrite | PTEUser
	for level := PTLevels - 1; level >= 0; level-- {
		var pte uint64
		pte, deps[level], err = a.readPTE(table, ptIndex(virt, level))
		if err != nil {
			return 0, 0, false, deps, err
		}
		if pte&PTEPresent == 0 {
			return 0, 0, false, deps, &Fault{Kind: FaultPF, VMPL: a.VMPL, CPL: a.CPL, Access: acc, Virt: virt, Why: "not present"}
		}
		eff &= pte
		effNX = effNX || pte&PTENX != 0
		table = PTEAddr(pte)
	}
	return table, eff, effNX, deps, nil
}

// ptePermits reports whether the accumulated PTE permissions allow one
// access: the allocation-free twin of permCheck, which only explains a
// refusal. TestPTEPermitsMatchesPermCheck pins the two together.
func (a AccessContext) ptePermits(eff uint64, effNX bool, acc Access) bool {
	return (a.CPL != CPL3 || eff&PTEUser != 0) &&
		(acc != AccessWrite || eff&PTEWrite != 0) &&
		(acc != AccessExec || !effNX)
}

// permCheck applies the accumulated PTE permissions to one access. These
// are the recoverable #PF conditions raised after a successful walk.
func (a AccessContext) permCheck(virt, phys uint64, eff uint64, effNX bool, acc Access) error {
	if a.CPL == CPL3 && eff&PTEUser == 0 {
		return &Fault{Kind: FaultPF, VMPL: a.VMPL, CPL: a.CPL, Access: acc, Virt: virt, Phys: phys, Why: "supervisor page at CPL3"}
	}
	switch acc {
	case AccessWrite:
		// Supervisor writes honour the write bit too (CR0.WP set, as
		// commodity kernels run).
		if eff&PTEWrite == 0 {
			return &Fault{Kind: FaultPF, VMPL: a.VMPL, CPL: a.CPL, Access: acc, Virt: virt, Phys: phys, Why: "write to read-only page"}
		}
	case AccessExec:
		if effNX {
			return &Fault{Kind: FaultPF, VMPL: a.VMPL, CPL: a.CPL, Access: acc, Virt: virt, Phys: phys, Why: "execute from NX page"}
		}
	}
	return nil
}

// translate resolves virt and records the recoverable fault, if any, as a
// ClassFault event: guest #PFs are handled (not halting), so this is the
// only place they become visible to the trace, the flight ring and the
// auditor.
func (a AccessContext) translate(virt uint64, acc Access) (uint64, *tlbEntry, error) {
	phys, e, err := a.translateTLB(virt, acc)
	if err != nil {
		if f, ok := AsFault(err); ok {
			a.M.ObserveFault(f)
		}
	}
	return phys, e, err
}

// translateTLB resolves virt through the software TLB, falling back to the
// hardware walk on a miss. It returns the live cache slot (nil when the
// leaf is uncacheable) so the span path can reuse and extend its RMP
// verdict mask in place. Negative walk outcomes (not-present,
// non-canonical, null CR3) are never cached; a completed walk is cached
// even when the access then takes a permission #PF, because the cached
// frame and permission bits reproduce that fault bit-identically.
func (a AccessContext) translateTLB(virt uint64, acc Access) (uint64, *tlbEntry, error) {
	if a.CR3 == 0 {
		return 0, nil, &Fault{Kind: FaultGP, VMPL: a.VMPL, CPL: a.CPL, Virt: virt, Why: "null CR3"}
	}
	if virt>>VirtBits != 0 {
		return 0, nil, &Fault{Kind: FaultPF, VMPL: a.VMPL, CPL: a.CPL, Access: acc, Virt: virt, Why: "non-canonical address"}
	}
	m := a.M
	key := tlbKey{cr3: a.CR3, vpage: virt >> PageShift, vmpl: a.VMPL, cpl: a.CPL}
	e := m.tlbSlot(key)
	if m.tlbLive(e, key) {
		m.memStats.TLBHits++
		phys := e.physPage | PageOffset(virt)
		if !a.ptePermits(e.eff, e.effNX, acc) {
			return 0, nil, a.permCheck(virt, phys, e.eff, e.effNX, acc)
		}
		return phys, e, nil
	}
	m.memStats.TLBMisses++
	physPage, eff, effNX, deps, err := a.walk(virt, acc)
	if err != nil {
		return 0, nil, err
	}
	if !m.tlbFill(e, key, physPage, eff, effNX, deps) {
		e = nil
	}
	phys := physPage | PageOffset(virt)
	if !a.ptePermits(eff, effNX, acc) {
		return 0, nil, a.permCheck(virt, phys, eff, effNX, acc)
	}
	return phys, e, nil
}

// span returns the RMP-checked backing slice for the n bytes at virt, which
// must lie within one page. Its fast path is one straight-line test: a TLB
// hit needing no generation recheck, whose RMP verdict for acc is cached
// at the current epoch (every RMP mutation bumps the epoch, so the cached
// pass is still exact), whose PTE bits permit acc, on a running machine,
// with the n bytes inside the page. It counts the hit, marks a written
// page and hands out the slice. Every other access goes to spanSlow.
func (a AccessContext) span(virt uint64, n int, acc Access) ([]byte, error) {
	m := a.M
	// A null CR3 always faults, and its key could match a slot tlbFill
	// emptied, so it never takes the fast path.
	if m.tlb != nil && a.CR3 != 0 {
		key := tlbKey{cr3: a.CR3, vpage: virt >> PageShift, vmpl: a.VMPL, cpl: a.CPL}
		e := m.tlbSlot(key)
		phys := e.physPage | PageOffset(virt)
		if e.key == key && e.ptSeen == m.ptWrites && e.rmpEpoch == m.tlbRMPEpoch &&
			e.rmpOK&(1<<acc) != 0 && a.ptePermits(e.eff, e.effNX, acc) &&
			m.halted == nil && uint64(n) <= PageSize-PageOffset(phys) {
			m.memStats.TLBHits++
			if acc == AccessWrite {
				m.noteWrite(phys >> PageShift)
			}
			return m.mem[phys : phys+uint64(n)], nil
		}
	}
	return a.spanSlow(virt, n, acc)
}

// spanSlow is span for every access its fast path does not allow: it
// translates (counting the one TLB hit or miss), runs the physical funnel
// and records the verdict on the entry. A verdict already cached needs no
// shortcut here: tlbFill clears the mask whenever it refills an entry, and
// every RMP mutation bumps the epoch, so guestAccessOK re-derives the same
// pass, and guestAccessPhys builds the same halt and range errors and the
// same faults and evidence as the copying path, with the true faulting
// virtual address carried through.
func (a AccessContext) spanSlow(virt uint64, n int, acc Access) ([]byte, error) {
	m := a.M
	phys, e, err := a.translate(virt, acc)
	if err != nil {
		return nil, err
	}
	buf, err := m.guestAccessPhys(a.VMPL, a.CPL, phys, n, acc, virt)
	if err != nil {
		return nil, err
	}
	if e != nil {
		if e.rmpEpoch != m.tlbRMPEpoch {
			e.rmpEpoch = m.tlbRMPEpoch
			e.rmpOK = 0
		}
		e.rmpOK |= 1 << uint(acc)
	}
	return buf, nil
}

// WithSpan runs fn over the backing bytes of [virt, virt+n), which must lie
// within a single page, after the full PTE+RMP checks for acc. The slice
// aliases guest memory — there is no copy in either direction — and is only
// valid during fn; callers must not retain it, because any RMP or mapping
// change can invalidate what it is allowed to alias.
func (a AccessContext) WithSpan(virt uint64, n int, acc Access, fn func([]byte) error) error {
	mem, err := a.span(virt, n, acc)
	if err != nil {
		return err
	}
	a.M.countSpan(acc)
	return fn(mem)
}

// access performs a chunked virtual access, splitting on page boundaries.
// Each chunk resolves through the TLB-backed span path, so the fault — if
// one is raised — carries the exact virtual address of the failing chunk
// from construction rather than being patched afterwards.
func (a AccessContext) access(virt uint64, buf []byte, acc Access) error {
	off := 0
	for off < len(buf) {
		chunk := int(PageSize - PageOffset(virt+uint64(off)))
		if rem := len(buf) - off; chunk > rem {
			chunk = rem
		}
		mem, err := a.span(virt+uint64(off), chunk, acc)
		if err != nil {
			return err
		}
		if acc == AccessWrite {
			copy(mem, buf[off:off+chunk])
		} else {
			copy(buf[off:off+chunk], mem)
		}
		off += chunk
	}
	return nil
}

// Read copies len(buf) bytes from virtual memory into buf.
func (a AccessContext) Read(virt uint64, buf []byte) error {
	return a.access(virt, buf, AccessRead)
}

// Write copies buf into virtual memory at virt.
func (a AccessContext) Write(virt uint64, buf []byte) error {
	return a.access(virt, buf, AccessWrite)
}

// ReadU64 loads a little-endian 64-bit word.
func (a AccessContext) ReadU64(virt uint64) (uint64, error) {
	if PageOffset(virt)+8 <= PageSize {
		mem, err := a.span(virt, 8, AccessRead)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(mem), nil
	}
	var b [8]byte
	if err := a.Read(virt, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 stores a little-endian 64-bit word.
func (a AccessContext) WriteU64(virt uint64, v uint64) error {
	if PageOffset(virt)+8 <= PageSize {
		mem, err := a.span(virt, 8, AccessWrite)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(mem, v)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return a.Write(virt, b[:])
}

// FetchCheck models an instruction fetch at virt: PTE execute check plus the
// RMP user/supervisor-execute check for the context's VMPL and ring.
func (a AccessContext) FetchCheck(virt uint64) error {
	_, err := a.span(virt, 1, AccessExec)
	return err
}

// WritePTE stores a page-table entry *as a software write*, i.e. subject to
// the full PTE+RMP checks of this context. Kernels build their tables this
// way; an OS attempting to edit a Veil-protected table page faults here
// (§8.3 attack 1).
func (a AccessContext) WritePTE(tablePhys uint64, idx uint64, pte uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], pte)
	return a.M.GuestWritePhys(a.VMPL, a.CPL, tablePhys+idx*8, b[:])
}

// ReadPTE loads a page-table entry as a software read under this context.
func (a AccessContext) ReadPTE(tablePhys uint64, idx uint64) (uint64, error) {
	var b [8]byte
	if err := a.M.GuestReadPhys(a.VMPL, a.CPL, tablePhys+idx*8, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

package mm

import (
	"fmt"

	"veil/internal/snp"
)

// FrameSource provides accepted (validated) physical frames. The kernel is
// one; VeilMon's protected allocator (core package) is another.
type FrameSource interface {
	AllocFrame() (uint64, error)
	FreeFrame(uint64) error
}

// AddressSpace is a 4-level page-table tree built from kernel-owned frames.
// All table edits are *software writes* through the owning context, so they
// are subject to the RMP: once VeilS-Enc clones and protects an enclave's
// tables, the kernel's attempts to edit them fault (§8.3 attack 1).
type AddressSpace struct {
	ctx   snp.AccessContext // context used to edit the tables
	alloc FrameSource
	cr3   uint64
	// tablePages tracks table frames for teardown.
	tablePages []uint64
}

// NewAddressSpace allocates an empty root table.
func NewAddressSpace(m *snp.Machine, vmpl snp.VMPL, alloc FrameSource) (*AddressSpace, error) {
	root, err := alloc.AllocFrame()
	if err != nil {
		return nil, err
	}
	as := &AddressSpace{
		ctx:        snp.AccessContext{M: m, VMPL: vmpl, CPL: snp.CPL0},
		alloc:      alloc,
		cr3:        root,
		tablePages: []uint64{root},
	}
	if err := as.zeroTable(root); err != nil {
		return nil, err
	}
	return as, nil
}

// CR3 returns the physical root of the tree.
func (as *AddressSpace) CR3() uint64 { return as.cr3 }

// Context returns an access context for software running in this address
// space at the given ring.
func (as *AddressSpace) Context(cpl snp.CPL) snp.AccessContext {
	return snp.AccessContext{M: as.ctx.M, VMPL: as.ctx.VMPL, CPL: cpl, CR3: as.cr3}
}

func (as *AddressSpace) zeroTable(phys uint64) error {
	span, err := as.ctx.M.Span(as.ctx.VMPL, snp.CPL0, phys, snp.PageSize, snp.AccessWrite)
	if err != nil {
		return err
	}
	clear(span)
	return nil
}

func ptIndexAt(virt uint64, level int) uint64 {
	return (virt >> (snp.PageShift + 9*level)) & 0x1FF
}

// walkTo returns the physical address of the leaf table that covers virt,
// allocating intermediate tables if create is set.
func (as *AddressSpace) walkTo(virt uint64, create bool) (uint64, error) {
	table := as.cr3
	for level := snp.PTLevels - 1; level >= 1; level-- {
		idx := ptIndexAt(virt, level)
		pte, err := as.ctx.ReadPTE(table, idx)
		if err != nil {
			return 0, err
		}
		if pte&snp.PTEPresent == 0 {
			if !create {
				return 0, fmt.Errorf("mm: no table for virt %#x at level %d", virt, level)
			}
			child, err := as.alloc.AllocFrame()
			if err != nil {
				return 0, err
			}
			if err := as.zeroTable(child); err != nil {
				return 0, err
			}
			as.tablePages = append(as.tablePages, child)
			if err := as.ctx.WritePTE(table, idx, snp.MakePTE(child, snp.PTEPresent|snp.PTEWrite|snp.PTEUser)); err != nil {
				return 0, err
			}
			table = child
		} else {
			table = snp.PTEAddr(pte)
		}
	}
	return table, nil
}

// Map installs a translation virt → phys with the given leaf flags
// (PTEPresent is implied).
func (as *AddressSpace) Map(virt, phys uint64, flags uint64) error {
	if virt%snp.PageSize != 0 || phys%snp.PageSize != 0 {
		return fmt.Errorf("mm: unaligned mapping %#x → %#x", virt, phys)
	}
	leaf, err := as.walkTo(virt, true)
	if err != nil {
		return err
	}
	return as.ctx.WritePTE(leaf, ptIndexAt(virt, 0), snp.MakePTE(phys, flags|snp.PTEPresent))
}

// Unmap removes the translation for virt, returning the old physical frame.
func (as *AddressSpace) Unmap(virt uint64) (uint64, error) {
	leaf, err := as.walkTo(virt, false)
	if err != nil {
		return 0, err
	}
	idx := ptIndexAt(virt, 0)
	pte, err := as.ctx.ReadPTE(leaf, idx)
	if err != nil {
		return 0, err
	}
	if pte&snp.PTEPresent == 0 {
		return 0, fmt.Errorf("mm: unmap of unmapped virt %#x", virt)
	}
	if err := as.ctx.WritePTE(leaf, idx, 0); err != nil {
		return 0, err
	}
	return snp.PTEAddr(pte), nil
}

// Protect rewrites the leaf flags for virt keeping its frame.
func (as *AddressSpace) Protect(virt uint64, flags uint64) error {
	leaf, err := as.walkTo(virt, false)
	if err != nil {
		return err
	}
	idx := ptIndexAt(virt, 0)
	pte, err := as.ctx.ReadPTE(leaf, idx)
	if err != nil {
		return err
	}
	if pte&snp.PTEPresent == 0 {
		return fmt.Errorf("mm: protect of unmapped virt %#x", virt)
	}
	return as.ctx.WritePTE(leaf, idx, snp.MakePTE(snp.PTEAddr(pte), flags|snp.PTEPresent))
}

// Release frees all table frames (mappings' data frames are the caller's
// responsibility).
func (as *AddressSpace) Release() error {
	for _, p := range as.tablePages {
		if err := as.alloc.FreeFrame(p); err != nil {
			return err
		}
	}
	as.tablePages = nil
	return nil
}

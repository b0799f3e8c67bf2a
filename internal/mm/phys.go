package mm

import (
	"fmt"

	"veil/internal/snp"
)

// PhysAllocator hands out guest physical page frames from a fixed range.
// The kernel owns one for its region of guest memory; VeilMon owns its own
// (in the core package) for monitor memory — the two never overlap.
type PhysAllocator struct {
	lo, hi uint64 // [lo, hi) in bytes, page aligned
	// fresh is the lowest frame never handed out; frames from it to hi
	// come next, low to high, once free (the frames returned since, in
	// return order) is empty.
	fresh uint64
	free  []uint64
	// inUse holds one bit per page of the range, set while the page is
	// allocated.
	inUse []uint64
}

// NewPhysAllocator creates an allocator over [lo, hi). Both bounds must be
// page aligned.
func NewPhysAllocator(lo, hi uint64) (*PhysAllocator, error) {
	if lo%snp.PageSize != 0 || hi%snp.PageSize != 0 || hi <= lo {
		return nil, fmt.Errorf("mm: bad allocator range [%#x,%#x)", lo, hi)
	}
	pages := (hi - lo) / snp.PageSize
	return &PhysAllocator{lo: lo, hi: hi, fresh: lo, inUse: make([]uint64, (pages+63)/64)}, nil
}

// Alloc returns one free page frame.
func (a *PhysAllocator) Alloc() (uint64, error) {
	var p uint64
	switch {
	case len(a.free) > 0:
		p = a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
	case a.fresh < a.hi:
		p = a.fresh
		a.fresh += snp.PageSize
	default:
		return 0, fmt.Errorf("mm: out of physical pages in [%#x,%#x)", a.lo, a.hi)
	}
	i := (p - a.lo) / snp.PageSize
	a.inUse[i/64] |= 1 << (i % 64)
	return p, nil
}

// Free returns a frame to the pool. A frame this allocator has not handed
// out (already freed, outside the range, or not a page base) is refused.
func (a *PhysAllocator) Free(p uint64) error {
	i := (p - a.lo) / snp.PageSize
	if p < a.lo || p >= a.hi || p%snp.PageSize != 0 || a.inUse[i/64]&(1<<(i%64)) == 0 {
		return fmt.Errorf("mm: double free of frame %#x", p)
	}
	a.inUse[i/64] &^= 1 << (i % 64)
	a.free = append(a.free, p)
	return nil
}

// TotalPages reports the size of the managed range in pages.
func (a *PhysAllocator) TotalPages() int { return int((a.hi - a.lo) / snp.PageSize) }

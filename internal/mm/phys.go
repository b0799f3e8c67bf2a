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
	free   []uint64
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
	a := &PhysAllocator{lo: lo, hi: hi, inUse: make([]uint64, (pages+63)/64)}
	// Stack the frames so allocation order is deterministic (low → high).
	for p := hi - snp.PageSize; ; p -= snp.PageSize {
		a.free = append(a.free, p)
		if p == lo {
			break
		}
	}
	return a, nil
}

// Alloc returns one free page frame.
func (a *PhysAllocator) Alloc() (uint64, error) {
	if len(a.free) == 0 {
		return 0, fmt.Errorf("mm: out of physical pages in [%#x,%#x)", a.lo, a.hi)
	}
	p := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
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

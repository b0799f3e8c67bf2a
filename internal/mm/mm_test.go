package mm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"veil/internal/snp"
)

// frameSrc is a FrameSource over pre-validated machine pages.
type frameSrc struct {
	m    *snp.Machine
	next uint64
	hi   uint64
	free []uint64
}

func newFrameSrc(t *testing.T, m *snp.Machine, lo, hi uint64) *frameSrc {
	t.Helper()
	for p := lo; p < hi; p += snp.PageSize {
		if err := m.HVAssignPage(p); err != nil {
			t.Fatal(err)
		}
		if err := m.PValidate(snp.VMPL0, p, true); err != nil {
			t.Fatal(err)
		}
	}
	return &frameSrc{m: m, next: lo, hi: hi}
}

func (f *frameSrc) AllocFrame() (uint64, error) {
	if n := len(f.free); n > 0 {
		p := f.free[n-1]
		f.free = f.free[:n-1]
		return p, nil
	}
	p := f.next
	f.next += snp.PageSize
	return p, nil
}

func (f *frameSrc) FreeFrame(p uint64) error {
	f.free = append(f.free, p)
	return nil
}

func TestAddressSpaceSparseMappings(t *testing.T) {
	m := snp.NewMachine(snp.Config{MemBytes: 256 * snp.PageSize, VCPUs: 1})
	src := newFrameSrc(t, m, 0, 128*snp.PageSize)
	as, err := NewAddressSpace(m, snp.VMPL0, src)
	if err != nil {
		t.Fatal(err)
	}
	// Mappings across widely separated parts of the 48-bit space force
	// distinct intermediate tables.
	virts := []uint64{
		0x0000_0000_1000_0000,
		0x0000_7F00_0000_0000,
		0x0000_0040_2000_0000,
	}
	for i, v := range virts {
		frame, _ := src.AllocFrame()
		if err := as.Map(v, frame, snp.PTEWrite|snp.PTEUser); err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
	}
	for _, v := range virts {
		if _, _, err := as.Lookup(v); err != nil {
			t.Fatalf("lookup %#x: %v", v, err)
		}
	}
	// Table pages grew beyond the root.
	if len(as.tablePages) < 7 {
		t.Fatalf("expected several table pages, got %d", len(as.tablePages))
	}
	if err := as.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestAddressSpaceRejectsUnaligned(t *testing.T) {
	m := snp.NewMachine(snp.Config{MemBytes: 64 * snp.PageSize, VCPUs: 1})
	src := newFrameSrc(t, m, 0, 32*snp.PageSize)
	as, err := NewAddressSpace(m, snp.VMPL0, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x1001, 0x2000, 0); err == nil {
		t.Fatal("unaligned virt accepted")
	}
	if err := as.Map(0x1000, 0x2001, 0); err == nil {
		t.Fatal("unaligned phys accepted")
	}
	if _, err := as.Unmap(0x555000); err == nil {
		t.Fatal("unmap of unmapped accepted")
	}
	if err := as.Protect(0x555000, 0); err == nil {
		t.Fatal("protect of unmapped accepted")
	}
}

// Property: Map/Lookup round-trips arbitrary page-aligned pairs.
func TestMapLookupProperty(t *testing.T) {
	m := snp.NewMachine(snp.Config{MemBytes: 512 * snp.PageSize, VCPUs: 1})
	src := newFrameSrc(t, m, 0, 256*snp.PageSize)
	as, err := NewAddressSpace(m, snp.VMPL0, src)
	if err != nil {
		t.Fatal(err)
	}
	used := map[uint64]bool{}
	f := func(vRaw uint32, frameIdx uint8) bool {
		virt := (uint64(vRaw) << snp.PageShift) & ((1 << 47) - 1) &^ (snp.PageSize - 1)
		if used[virt] {
			return true // skip duplicates
		}
		used[virt] = true
		phys := (256 + uint64(frameIdx)%128) * snp.PageSize
		// phys can repeat across virts here; the AS itself doesn't care.
		if phys >= m.NumPages()*snp.PageSize {
			return true
		}
		if err := as.Map(virt, phys, snp.PTEUser); err != nil {
			return false
		}
		got, flags, err := as.Lookup(virt)
		return err == nil && got == phys && flags&snp.PTEUser != 0 && flags&snp.PTEPresent != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPhysAllocatorRange(t *testing.T) {
	if _, err := NewPhysAllocator(100, 200); err == nil {
		t.Fatal("unaligned range accepted")
	}
	if _, err := NewPhysAllocator(snp.PageSize, snp.PageSize); err == nil {
		t.Fatal("empty range accepted")
	}
	a, err := NewPhysAllocator(snp.PageSize, 5*snp.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalPages() != 4 || len(freeStack(a)) != 4 {
		t.Fatalf("pages = %d/%d", len(freeStack(a)), a.TotalPages())
	}
	lo, hi := a.lo, a.hi
	if lo != snp.PageSize || hi != 5*snp.PageSize {
		t.Fatal("range mismatch")
	}
	// Deterministic low-to-high order.
	p1, _ := a.Alloc()
	p2, _ := a.Alloc()
	if p1 != snp.PageSize || p2 != 2*snp.PageSize {
		t.Fatalf("order: %#x %#x", p1, p2)
	}
}

// Lookup returns (phys, flags) for virt, or an error if unmapped.
func (as *AddressSpace) Lookup(virt uint64) (uint64, uint64, error) {
	leaf, err := as.walkTo(virt, false)
	if err != nil {
		return 0, 0, err
	}
	pte, err := as.ctx.ReadPTE(leaf, ptIndexAt(virt, 0))
	if err != nil {
		return 0, 0, err
	}
	if pte&snp.PTEPresent == 0 {
		return 0, 0, fmt.Errorf("mm: virt %#x unmapped", virt)
	}
	return snp.PTEAddr(pte), pte &^ snp.PTEAddrMask, nil
}

// freeStack returns a's free frames as the reference stacks them: the
// frames never handed out, high to low, under the frames returned since.
func freeStack(a *PhysAllocator) []uint64 {
	var s []uint64
	for p := a.hi; p > a.fresh; {
		p -= snp.PageSize
		s = append(s, p)
	}
	return append(s, a.free...)
}

// refPhysAllocator is the map-keyed allocator the bitmap replaced, kept
// as the reference for TestPhysAllocatorMatchesReference.
type refPhysAllocator struct {
	lo, hi uint64
	free   []uint64
	inUse  map[uint64]bool
}

func newRefPhysAllocator(lo, hi uint64) *refPhysAllocator {
	a := &refPhysAllocator{lo: lo, hi: hi, inUse: make(map[uint64]bool)}
	for p := hi - snp.PageSize; ; p -= snp.PageSize {
		a.free = append(a.free, p)
		if p == lo {
			break
		}
	}
	return a
}

func (a *refPhysAllocator) Alloc() (uint64, error) {
	if len(a.free) == 0 {
		return 0, fmt.Errorf("mm: out of physical pages in [%#x,%#x)", a.lo, a.hi)
	}
	p := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.inUse[p] = true
	return p, nil
}

func (a *refPhysAllocator) Free(p uint64) error {
	if !a.inUse[p] {
		return fmt.Errorf("mm: double free of frame %#x", p)
	}
	delete(a.inUse, p)
	a.free = append(a.free, p)
	return nil
}

// TestPhysAllocatorMatchesReference drives the bitmap allocator and the
// map-keyed reference through the same random Alloc/Free sequences, over
// ranges whose page counts straddle the bitmap's 64-bit words. Frees mix
// held frames, double frees, frames below and above the range and
// unaligned addresses; every result and error text must match.
func TestPhysAllocatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pages := range []uint64{1, 3, 63, 64, 65, 130} {
		lo := uint64(7 * snp.PageSize)
		hi := lo + pages*snp.PageSize
		a, err := NewPhysAllocator(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefPhysAllocator(lo, hi)
		var held []uint64
		for step := 0; step < 4000; step++ {
			var name string
			var got, want error
			var gp, wp uint64
			switch r := rng.Intn(10); {
			case r < 5:
				name = "alloc"
				gp, got = a.Alloc()
				wp, want = ref.Alloc()
				if got == nil {
					held = append(held, gp)
				}
			default:
				var p uint64
				switch r {
				case 5, 6: // a held frame, or one freed before
					if len(held) > 0 {
						i := rng.Intn(len(held))
						p = held[i]
						if r == 5 {
							held = append(held[:i], held[i+1:]...)
						}
					}
				case 7: // outside the range, below or at and past hi
					p = []uint64{0, lo - snp.PageSize, hi, hi + 9*snp.PageSize, ^uint64(0) &^ (snp.PageSize - 1)}[rng.Intn(5)]
				case 8: // unaligned, inside or around the range
					p = lo + uint64(rng.Int63n(int64(hi-lo)+2*snp.PageSize)) | 1
				case 9: // any page base of the range
					p = lo + uint64(rng.Int63n(int64(pages)))*snp.PageSize
					held = slices.DeleteFunc(held, func(h uint64) bool { return h == p })
				}
				name = fmt.Sprintf("free(%#x)", p)
				got, want = a.Free(p), ref.Free(p)
			}
			if gp != wp || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%d pages, step %d: %s = %#x, %v; the reference %#x, %v", pages, step, name, gp, got, wp, want)
			}
		}
		if !slices.Equal(freeStack(a), ref.free) {
			t.Fatalf("%d pages: free stacks differ", pages)
		}
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"veil/internal/snp"
)

// linearRegionSet is the reference registry RegionSet must agree with:
// append, stable sort by start, and scan in start order for the first
// region the range touches.
type linearRegionSet struct {
	regions []region
}

func (rs *linearRegionSet) Add(lo, hi uint64, label string) error {
	if hi <= lo {
		return fmt.Errorf("core: bad region [%#x,%#x)", lo, hi)
	}
	rs.regions = append(rs.regions, region{lo: lo, hi: hi, label: label})
	sort.SliceStable(rs.regions, func(i, j int) bool { return rs.regions[i].lo < rs.regions[j].lo })
	return nil
}

func (rs *linearRegionSet) AddPages(pages []uint64, label string) error {
	for _, p := range pages {
		if err := rs.Add(p, p+snp.PageSize, label); err != nil {
			return err
		}
	}
	return nil
}

func (rs *linearRegionSet) Remove(label string) int {
	kept := rs.regions[:0]
	removed := 0
	for _, r := range rs.regions {
		if r.label == label {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	rs.regions = kept
	return removed
}

// Overlaps is only defined for ranges that end below 2^64.
func (rs *linearRegionSet) Overlaps(ptr, n uint64) (string, bool) {
	if n == 0 {
		n = 1
	}
	end := ptr + n
	for _, r := range rs.regions {
		if r.lo >= end {
			break
		}
		if ptr < r.hi && r.lo < end {
			return r.label, true
		}
	}
	return "", false
}

// driveRegionSets replays an op script against a RegionSet and the linear
// reference, failing on the first answer that differs. Each op is a header
// byte followed by its operands: the low two bits pick Add, AddPages,
// Remove or Overlaps; bits 2-6 pick one of three labels; bit 7 moves the
// op's addresses just under 2^64. Addresses are coarse (multiples of 0x100
// within 64 KiB of the base), so nested, overlapping, duplicate and
// equal-start regions are common. A query that wraps past 2^64 has no
// reference answer; Sanitize must refuse it.
func driveRegionSets(t *testing.T, script []byte) {
	t.Helper()
	var got RegionSet
	var want linearRegionSet
	labels := [...]string{"a", "b", "c"}
	next := func() uint64 {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return uint64(b)
	}
	sameErr := func(op string, g, w error) {
		if (g == nil) != (w == nil) {
			t.Fatalf("%s: got err %v, reference err %v", op, g, w)
		}
	}
	for len(script) > 0 {
		hdr := next()
		base := uint64(0)
		if hdr&0x80 != 0 {
			base = math.MaxUint64 - 0x1_0000
		}
		label := labels[(hdr>>2&0x1F)%3]
		switch hdr & 3 {
		case 0:
			lo := base + next()<<8
			hi := lo + next()<<6
			sameErr(fmt.Sprintf("Add(%#x,%#x,%q)", lo, hi, label), got.Add(lo, hi, label), want.Add(lo, hi, label))
		case 1:
			pages := make([]uint64, next()%6)
			for i := range pages {
				pages[i] = base + next()<<8
			}
			sameErr(fmt.Sprintf("AddPages(%#x,%q)", pages, label), got.AddPages(pages, label), want.AddPages(pages, label))
		case 2:
			if g, w := got.Remove(label), want.Remove(label); g != w {
				t.Fatalf("Remove(%q) = %d, reference %d", label, g, w)
			}
		case 3:
			ptr := base + next()<<8 + next()
			n := next() << (next() % 12)
			if ptr+max(n, 1) < ptr {
				if got.Sanitize(ptr, n) == nil {
					t.Fatalf("Sanitize(%#x,%d) passed a range that wraps past 2^64", ptr, n)
				}
				continue
			}
			gl, gok := got.Overlaps(ptr, n)
			wl, wok := want.Overlaps(ptr, n)
			if gl != wl || gok != wok {
				t.Fatalf("Overlaps(%#x,%d) = %q,%v; reference %q,%v", ptr, n, gl, gok, wl, wok)
			}
			if (got.Sanitize(ptr, n) != nil) != wok {
				t.Fatalf("Sanitize(%#x,%d) disagrees with Overlaps", ptr, n)
			}
		}
		if len(got.regions) != len(want.regions) {
			t.Fatalf("Len = %d, reference %d", len(got.regions), len(want.regions))
		}
	}
}

func TestRegionSetDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		script := make([]byte, 64+rng.Intn(512))
		rng.Read(script)
		t.Run(fmt.Sprint(i), func(t *testing.T) { driveRegionSets(t, script) })
	}
}

func FuzzRegionSet(f *testing.F) {
	f.Add([]byte{0, 1, 255, 5, 3, 2, 4, 6, 3, 2, 0, 40, 3})              // pages nested in an outer region
	f.Add([]byte{0, 16, 4, 4, 16, 64, 3, 16, 128, 1, 3, 3, 24, 0, 1, 0}) // equal starts, two labels
	f.Add([]byte{0x80, 0xFF, 0xFF, 0x83, 0xFF, 0xFF, 0xFF, 11})          // near 2^64
	f.Fuzz(func(t *testing.T, script []byte) { driveRegionSets(t, script) })
}

// logStoreSet registers a VeilS-Log-shaped registry: the monitor region
// with n store pages nested inside it, one region per page. It returns a
// kernel address just above the monitor region.
func logStoreSet(tb testing.TB, n int) (*RegionSet, uint64) {
	tb.Helper()
	const storeLo = 0x20_0000
	rs := &RegionSet{}
	monHi := storeLo + uint64(n)*snp.PageSize
	if err := rs.Add(0x10_0000, monHi, "veilmon"); err != nil {
		tb.Fatal(err)
	}
	if err := rs.AddPages(storePages(n, storeLo), "veils-log-store"); err != nil {
		tb.Fatal(err)
	}
	return rs, monHi + 0x1_0000
}

func storePages(n int, lo uint64) []uint64 {
	pages := make([]uint64, n)
	for i := range pages {
		pages[i] = lo + uint64(i)*snp.PageSize
	}
	return pages
}

// The path every cleared ring descriptor takes allocates nothing.
func TestRegionSetSanitizeZeroAlloc(t *testing.T) {
	rs, kernel := logStoreSet(t, 8192)
	allocs := testing.AllocsPerRun(1000, func() {
		if rs.Sanitize(kernel, 64) != nil {
			t.Fatal("kernel pointer refused")
		}
	})
	if allocs != 0 {
		t.Fatalf("Sanitize allocates %.1f times per clear call", allocs)
	}
}

func BenchmarkRegionSetSanitize(b *testing.B) {
	for _, n := range []int{8192, 32768} {
		b.Run(fmt.Sprintf("regions=%d", n), func(b *testing.B) {
			rs, kernel := logStoreSet(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rs.Sanitize(kernel+uint64(i%64)*64, 64) != nil {
					b.Fatal("kernel pointer refused")
				}
			}
		})
	}
}

func BenchmarkRegionSetAddPages(b *testing.B) {
	for _, n := range []int{8192, 32768} {
		b.Run(fmt.Sprintf("regions=%d", n), func(b *testing.B) {
			pages := storePages(n, 0x20_0000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var rs RegionSet
				if err := rs.AddPages(pages, "veils-log-store"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

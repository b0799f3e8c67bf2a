package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"veil/internal/snp"
)

// RegionSet is VeilMon's registry of protected physical ranges. Before
// dereferencing any pointer received from the untrusted OS, the monitor and
// every protected service check it against this set — the IDCB-sanitization
// defence of §8.1 ("OS request sanitized", Table 1).
//
// Regions are kept sorted by start address (equal starts in insertion
// order) beside a prefix maximum of their ends, so a lookup is one binary
// search however many regions are registered (VeilS-Log alone registers
// its store one page per region), and it names exactly the region a
// first-to-last scan in start order would name — nested regions included.
type RegionSet struct {
	regions []region
	maxHi   []uint64 // maxHi[i] = max(regions[0..i].hi)
}

type region struct {
	lo, hi uint64 // [lo, hi)
	label  string
}

// Add registers [lo, hi) as protected.
func (rs *RegionSet) Add(lo, hi uint64, label string) error {
	if hi <= lo {
		return fmt.Errorf("core: bad region [%#x,%#x)", lo, hi)
	}
	// Insert after every region starting at or before lo, so equal starts
	// keep insertion order.
	i := sort.Search(len(rs.regions), func(i int) bool { return rs.regions[i].lo > lo })
	rs.regions = slices.Insert(rs.regions, i, region{lo: lo, hi: hi, label: label})
	rs.maxHi = slices.Insert(rs.maxHi, i, 0)
	rs.rebuildMaxHi(i)
	return nil
}

// AddPages registers a page list (e.g. an enclave's frames). Pages before
// a bad one stay registered, as if added one by one.
func (rs *RegionSet) AddPages(pages []uint64, label string) error {
	var err error
	for _, p := range pages {
		if p+snp.PageSize <= p {
			err = fmt.Errorf("core: bad region [%#x,%#x)", p, p+snp.PageSize)
			break
		}
		rs.regions = append(rs.regions, region{lo: p, hi: p + snp.PageSize, label: label})
	}
	slices.SortStableFunc(rs.regions, func(a, b region) int { return cmp.Compare(a.lo, b.lo) })
	rs.maxHi = slices.Grow(rs.maxHi[:0], len(rs.regions))[:len(rs.regions)]
	rs.rebuildMaxHi(0)
	return err
}

// Remove drops every region with the given label (enclave teardown).
func (rs *RegionSet) Remove(label string) int {
	kept := rs.regions[:0]
	for _, r := range rs.regions {
		if r.label != label {
			kept = append(kept, r)
		}
	}
	removed := len(rs.regions) - len(kept)
	rs.regions = kept
	rs.maxHi = rs.maxHi[:len(kept)]
	rs.rebuildMaxHi(0)
	return removed
}

// rebuildMaxHi recomputes the prefix maximum from index i on.
func (rs *RegionSet) rebuildMaxHi(i int) {
	for ; i < len(rs.regions); i++ {
		m := rs.regions[i].hi
		if i > 0 && rs.maxHi[i-1] > m {
			m = rs.maxHi[i-1]
		}
		rs.maxHi[i] = m
	}
}

// Overlaps returns the label of a protected region intersecting
// [ptr, ptr+n), if any: the first such region in start order. A range
// running past the top of the address space is clipped there.
func (rs *RegionSet) Overlaps(ptr, n uint64) (string, bool) {
	if n == 0 {
		n = 1
	}
	// The first region ending past ptr is the first j whose prefix maximum
	// does; every later region starts at or after it, so the range hits a
	// region iff it hits that one's start.
	j := sort.Search(len(rs.maxHi), func(i int) bool { return rs.maxHi[i] > ptr })
	if j == len(rs.regions) {
		return "", false
	}
	if end := ptr + n; end > ptr && rs.regions[j].lo >= end {
		return "", false
	}
	return rs.regions[j].label, true
}

// Sanitize returns an error if [ptr, ptr+n) touches protected memory or
// runs past the top of the address space. This is the check every
// untrusted pointer goes through before the monitor or a service
// dereferences it.
func (rs *RegionSet) Sanitize(ptr, n uint64) error {
	if ptr+max(n, 1) < ptr {
		return fmt.Errorf("core: untrusted pointer %#x+%d wraps past 2^64", ptr, n)
	}
	if label, bad := rs.Overlaps(ptr, n); bad {
		return fmt.Errorf("core: untrusted pointer %#x+%d targets protected region %q", ptr, n, label)
	}
	return nil
}

// Len reports how many regions are registered.
func (rs *RegionSet) Len() int { return len(rs.regions) }

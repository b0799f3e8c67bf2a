package snp

// Software TLB for the simulated hardware page-table walker.
//
// Real SEV-SNP cores cache completed nested walks — the guest translation
// plus the RMP verdict — and require explicit TLB invalidation when the RMP
// or the tables change; a stale translation that survives an RMPADJUST is a
// known attack surface of the SNP interface. The model reproduces that
// structure — and gets its host speed from it — with a direct-mapped
// translation cache and two invalidation channels, ordered from blunt to
// precise:
//
//   - RMP mutations (RMPADJUST, PVALIDATE, VMSA create/destroy, hypervisor
//     page-state changes) bump the RMP epoch: cached *translations* survive
//     (the guest page tables did not change) but every memoized RMP verdict
//     dies, so the next access re-runs the RMP check — which is exactly
//     the re-check hardware performs after the required invalidation.
//   - A software write landing on a live page-table page (one the walker
//     has read PTEs from) bumps that page's generation: only entries whose
//     walk traversed the written page die, because each entry records the
//     four table pages (and generations) its walk read. The same write
//     bumps the machine-wide ptWrites counter. An entry remembers the
//     count it was last checked at (ptSeen), so while no table page has
//     been written a hit is one compare; after a write, the first hit on
//     each entry rechecks its four generations and, if they all still
//     match, re-stamps ptSeen and stays live.
//
// A stale entry can therefore never survive a permission change, at any
// layer, while unrelated translations stay hot.
//
// Fast-path rule, shared by every memory funnel (AccessContext.span,
// guestAccessPhys, hostAccessPhys): an access is allowed by one
// straight-line test, and no refusal is built on that path. The span test
// is a hit whose ptSeen is current and whose RMP verdict for the access is
// cached at the current epoch, with ptePermits, a running machine and the
// bytes inside one page; it counts the hit and returns the slice. Anything
// else takes the out-of-line path, which translates (counting one hit or
// miss, never a second), and builds every fault, halt and flight-ring event.
// Whether an access is allowed is decided only by guestAccessOK and
// ptePermits; checkGuestAccess and permCheck only explain a refusal.
//
// The TLB affects host wall-clock only. It charges no virtual cycles and
// emits no events, so every deterministic simulator output is unchanged;
// MemStats counters are exported out-of-band (veil-sim -metrics, bench).

// tlbSlots is the number of direct-mapped cache slots. Collisions simply
// evict — correctness never depends on residency.
const tlbSlots = 1 << 12

// tlbKey identifies one cached translation. CR3 is part of the key so
// contexts on different trees never alias; VMPL/CPL are included because
// the effective-permission faults and the RMP verdict depend on them.
type tlbKey struct {
	cr3   uint64
	vpage uint64
	vmpl  VMPL
	cpl   CPL
}

// tlbDep records one table page the walk read, with the generation it had
// at walk time.
type tlbDep struct {
	pi  uint32
	gen uint32
}

// tlbEntry is one completed walk: the leaf frame, the accumulated PTE
// permission bits, the pages the walk depends on, and the per-access RMP
// verdict mask.
type tlbEntry struct {
	key      tlbKey
	ptSeen   uint64 // Machine.ptWrites when deps were last found current
	rmpEpoch uint64 // epoch rmpOK was established at
	physPage uint64
	eff      uint64 // accumulated PTEWrite|PTEUser across levels
	deps     [PTLevels]tlbDep
	effNX    bool
	rmpOK    uint8 // bitmask by Access: the RMP check passed at rmpEpoch
}

// MemStats are host-side counters over the memory path: software-TLB
// behaviour and zero-copy span usage. They never feed the virtual Clock.
type MemStats struct {
	TLBHits           uint64 // translations served from the cache
	TLBMisses         uint64 // translations that ran the 4-level walk
	TLBFlushes        uint64 // always 0 (no layer flushes it all); kept for the exports' shape
	TLBRMPFlushes     uint64 // RMP-verdict invalidations (RMP/page-state changes)
	TLBPTInvalidation uint64 // precise per-table-page invalidations
	SpanReads         uint64 // zero-copy read spans handed out
	SpanWrites        uint64 // zero-copy write spans handed out
	// SpanBatchHits and SpanBatchFills always read zero: the batch span
	// cursor they counted is gone. They stay so that existing readers and
	// the committed BENCH_mempath.json keep their shape.
	SpanBatchHits  uint64
	SpanBatchFills uint64
}

// MemStats returns a snapshot of the memory-path counters.
func (m *Machine) MemStats() MemStats { return m.memStats }

// rmpFlushTLB invalidates every cached RMP verdict (translations survive).
// Every architectural RMP or page-state mutation calls it.
func (m *Machine) rmpFlushTLB() {
	// Count the mutation before the broken-mode guard: rmpMutations is the
	// auditor's ground truth, and must diverge from TLBRMPFlushes exactly
	// when invalidation is (wrongly) suppressed.
	m.rmpMutations++
	if m.tlbNoInvalidate {
		return
	}
	m.tlbRMPEpoch++
	m.memStats.TLBRMPFlushes++
}

// SetBrokenTLBNoInvalidate disables TLB invalidation entirely. This exists
// only to prove the stale-translation attack test has teeth (a TLB that
// skips invalidation must make the suite fail); it must never be enabled
// outside that test.
func (m *Machine) SetBrokenTLBNoInvalidate(on bool) { m.tlbNoInvalidate = on }

// tlbSlot returns the cache slot for k (allocating the cache on first use).
func (m *Machine) tlbSlot(k tlbKey) *tlbEntry {
	if m.tlb == nil {
		m.tlb = make([]tlbEntry, tlbSlots)
	}
	idx := (k.vpage ^ k.cr3>>PageShift ^ uint64(k.vmpl)<<7 ^ uint64(k.cpl)<<9) & (tlbSlots - 1)
	return &m.tlb[idx]
}

// tlbLive reports whether e currently caches k: right key, and every table
// page the walk read still at its walk-time generation. While
// no table page has been written since e was last checked, that is the
// single ptSeen compare; otherwise the generations are rechecked and a
// surviving entry is re-stamped.
func (m *Machine) tlbLive(e *tlbEntry, k tlbKey) bool {
	if e.key != k {
		return false
	}
	if e.ptSeen == m.ptWrites {
		return true
	}
	if !m.tlbDepsCurrent(e) {
		return false
	}
	e.ptSeen = m.ptWrites
	return true
}

// tlbDepsCurrent reports whether every table page e's walk read is still at
// its walk-time generation. It reads machine state only.
func (m *Machine) tlbDepsCurrent(e *tlbEntry) bool {
	for _, d := range e.deps {
		if m.ptGen[d.pi] != d.gen {
			return false
		}
	}
	return true
}

// tlbFill (re)populates e with a completed walk. Leaves outside guest
// memory are never cached: the access path must keep reporting the
// out-of-range error, and the fast path must never slice m.mem beyond its
// bounds. Returns whether the slot is now live for k.
func (m *Machine) tlbFill(e *tlbEntry, k tlbKey, physPage, eff uint64, effNX bool, deps [PTLevels]tlbDep) bool {
	if physPage >= m.cfg.MemBytes {
		if e.key == k {
			e.key = tlbKey{} // drop a stale entry shadowing this key
		}
		return false
	}
	*e = tlbEntry{
		key: k, ptSeen: m.ptWrites, rmpEpoch: m.tlbRMPEpoch,
		physPage: physPage, eff: eff, effNX: effNX, deps: deps,
	}
	return true
}

// notePTPage marks pi as a live page-table page: the hardware walker has
// read entries from it, so cached translations may depend on its contents
// and any later software write to it must invalidate them. The set is
// conservative — pages are never un-marked — which can only cause extra
// invalidations. Returns the page's current generation.
func (m *Machine) notePTPage(pi uint64) uint32 {
	if m.ptGen == nil {
		pages := uint64(len(m.rmp))
		m.ptPages = make([]uint64, (pages+63)/64)
		m.ptGen = make([]uint32, pages)
	}
	m.ptPages[pi>>6] |= 1 << (pi & 63)
	return m.ptGen[pi]
}

// isPTPage reports whether the walker has ever read PTEs from page pi.
func (m *Machine) isPTPage(pi uint64) bool {
	return m.ptPages != nil && m.ptPages[pi>>6]&(1<<(pi&63)) != 0
}

// invalidatePTPage bumps pi's generation after a software write to a live
// table page, killing exactly the translations whose walk read it, and the
// machine-wide ptWrites count that sends every entry's next hit through
// that check.
func (m *Machine) invalidatePTPage(pi uint64) {
	if m.tlbNoInvalidate {
		return
	}
	m.ptGen[pi]++
	m.ptWrites++
	m.memStats.TLBPTInvalidation++
}

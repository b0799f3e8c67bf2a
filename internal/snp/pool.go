package snp

import (
	"math/bits"
	"sync"
)

// Machine backing pool: the large per-machine allocations — guest physical
// memory, the RMP and the written-page bitmap — recycled across boots.
// Benchmark harnesses boot hundreds of identically-sized machines per run
// (and, under the veil-bench -j worker pool, several at once); drawing the
// backing arrays from a pool replaces each boot's dominant allocation and
// first-touch fault sweep with a clear of just the pages the previous
// machine wrote, and takes the matching load off the collector.
//
// Reuse is invisible to the simulation: a recycled backing is cleared
// before NewMachine returns, so a pooled machine starts from exactly the
// all-zero state a fresh one does and every deterministic output is
// unchanged. The written bitmap is what makes the clear cheap: a page
// whose bit is clear is already all zero (see Machine.written), so only
// written pages are zeroed. The pools are sync.Pools behind a size-keyed
// registry, so retained memory stays reclaimable by the collector when no
// machine of that size is booted again.

// machineBacking bundles one machine's poolable backing arrays. mem, rmp
// and written always describe the same page count.
type machineBacking struct {
	mem     []byte
	rmp     []RMPEntry
	written []uint64
}

// backingPools maps a machine's page count to the *sync.Pool of
// *machineBacking recycled for that size.
var backingPools sync.Map

func poolFor(pages uint64) *sync.Pool {
	if p, ok := backingPools.Load(pages); ok {
		return p.(*sync.Pool)
	}
	p, _ := backingPools.LoadOrStore(pages, &sync.Pool{})
	return p.(*sync.Pool)
}

// acquireBacking returns a cleared recycled backing for a machine of the
// given page count, or nil when the pool has none.
func acquireBacking(pages uint64) *machineBacking {
	b, _ := poolFor(pages).Get().(*machineBacking)
	if b == nil {
		return nil
	}
	for i, w := range b.written {
		for ; w != 0; w &= w - 1 {
			base := (uint64(i)<<6 | uint64(bits.TrailingZeros64(w))) << PageShift
			clear(b.mem[base : base+PageSize])
		}
	}
	clear(b.written)
	clear(b.rmp)
	return b
}

// releaseBacking returns a backing to its size's pool.
func releaseBacking(b *machineBacking) {
	poolFor(uint64(len(b.rmp))).Put(b)
}

// Release returns the machine's backing memory to the boot pool and drops
// its other per-boot state (RMP baseline, flight ring, VMSA registry). The
// machine — and anything aliasing its memory: access contexts, span
// windows — must not be used afterwards; callers own that
// lifetime (the bench harness releases only machines whose experiments
// have fully read their results). Releasing twice is a no-op.
func (m *Machine) Release() {
	if m.mem == nil {
		return
	}
	releaseBacking(&machineBacking{mem: m.mem, rmp: m.rmp, written: m.written})
	m.mem = nil
	m.rmp = nil
	m.written = nil
	m.tlb = nil
	m.ptPages = nil
	m.ptGen = nil
	// Drop the other per-boot allocations too, so a caller that keeps the
	// *Machine (a benchmark keeping its rounds) pins only the struct.
	m.rmpBaseline = nil
	m.flight = nil
	m.vmsas = nil
}

package snp

import "sync"

// Machine backing pool: the two large per-machine allocations — guest
// physical memory and the RMP — recycled across boots. Benchmark harnesses
// boot hundreds of identically-sized machines per run (and, under the
// veil-bench -j worker pool, several at once); drawing the backing arrays
// from a pool turns each boot's dominant allocation into a memclr of
// already-resident pages instead of a fresh multi-megabyte heap grow plus
// first-touch fault sweep, and takes the matching load off the collector.
//
// Reuse is invisible to the simulation: a recycled backing is cleared
// before NewMachine returns, so a pooled machine starts from exactly the
// all-zero state a fresh one does and every deterministic output is
// unchanged. The pools are sync.Pools behind a size-keyed registry, so
// retained memory stays reclaimable by the collector when no machine of
// that size is booted again.

// machineBacking bundles one machine's poolable backing arrays. mem and
// rmp always describe the same page count.
type machineBacking struct {
	mem []byte
	rmp []RMPEntry
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
	clear(b.mem)
	clear(b.rmp)
	return b
}

// releaseBacking returns a backing to its size's pool.
func releaseBacking(b *machineBacking) {
	poolFor(uint64(len(b.rmp))).Put(b)
}

// Release returns the machine's backing memory to the boot pool and drops
// its other per-boot state (RMP baseline, flight ring, VMSA map). The
// machine — and anything aliasing its memory: access contexts, span
// windows, SpanCursors — must not be used afterwards; callers own that
// lifetime (the bench harness releases only machines whose experiments
// have fully read their results). Releasing twice is a no-op.
func (m *Machine) Release() {
	if m.mem == nil {
		return
	}
	// Invalidate any outstanding SpanCursor: a cursor caches a slice of
	// m.mem plus a tlbGen snapshot, and the backing may next belong to a
	// different machine.
	m.tlbGen++
	releaseBacking(&machineBacking{mem: m.mem, rmp: m.rmp})
	m.mem = nil
	m.rmp = nil
	m.tlb = nil
	m.ptPages = nil
	m.ptGen = nil
	// Drop the other per-boot allocations too, so a caller that keeps the
	// *Machine (a benchmark keeping its rounds) pins only the struct.
	m.rmpBaseline = nil
	m.flight = nil
	m.vmsas = nil
}

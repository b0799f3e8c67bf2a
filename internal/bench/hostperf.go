package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veil/internal/cvm"
	"veil/internal/mm"
	"veil/internal/obs"
	"veil/internal/sdk"
	"veil/internal/snp"
	"veil/internal/workloads"
)

// The host-throughput microbenchmark: absolute wall-clock cost and
// allocations of the simulator's three hottest host paths:
//
//   - obs export: the pooled Prometheus/summary renderers over the metrics
//     corpus a real sqlite run records (the obs experiment's workload).
//   - obs record: ns and allocations per event on the sharded ring's
//     steady-state (full-ring, fold-on-evict) hot path.
//   - memory translate: per-access AccessContext loads over the mempath
//     experiment's page layout.
//
// Plus the parallel fan-out curve: the same fixed bundle of independent
// simulation tasks timed under 1, 2, 4, … NumCPU workers claiming work
// from a shared queue — the same scheme veil-bench -j uses — with machine
// backings drawn from the snp boot pool.
//
// Nothing here touches a virtual-cycle output: every path under
// measurement is host-only by construction.

// hostPerfRingCap keeps the export corpus's retained rings small enough
// that the measurement is dominated by rendering rather than by the
// Metrics() ring scan.
const hostPerfRingCap = 1 << 10

// HostPerfScalePoint is one point of the fan-out curve.
type HostPerfScalePoint struct {
	Workers     int
	HostSeconds float64
	Speedup     float64 // serial wall time / this wall time
}

// HostPerfResult captures one run. Everything except Iterations,
// ExportEvents, ExportBytes and MemAccesses is host-side measurement
// (time, allocations, speedups) — Scrub zeroes all of it for -stable.
type HostPerfResult struct {
	Iterations int

	// Export path (sqlite corpus).
	ExportEvents       uint64  // events the corpus run recorded
	ExportBytes        int     // bytes per render (Prometheus + summary)
	HostNsExportPooled float64 // ns per render
	ExportAllocsPooled float64 // heap allocations per render

	// Record path.
	HostNsPerEvent    float64 // ns per Record, steady state
	RecordAllocsPerOp float64

	// Memory translate path: one sweep loads every 64-bit word of the
	// mempath layout through the exact per-access path.
	MemAccesses           uint64  // word loads per sweep (deterministic)
	HostNsPerAccessScalar float64 // per-access AccessContext loads

	// Parallel fan-out.
	ScaleTasks int // independent tasks per curve point
	Scale      []HostPerfScalePoint
}

// Scrub zeroes every host-dependent field (timings, allocation counts and
// the whole machine-shaped scaling curve) so -stable runs are
// byte-comparable across hosts and -j settings.
func (r *HostPerfResult) Scrub() {
	r.HostNsExportPooled = 0
	r.ExportAllocsPooled = 0
	r.HostNsPerEvent = 0
	r.RecordAllocsPerOp = 0
	r.HostNsPerAccessScalar = 0
	r.ScaleTasks = 0
	r.Scale = nil
}

// hostNsPerOp times f on the locked thread's CPU clock with the collector
// paused (the obspath measurement discipline) and returns ns per op.
func hostNsPerOp(ops uint64, f func()) float64 {
	runtime.GC()
	runtime.LockOSThread()
	gcPct := debug.SetGCPercent(-1)
	start := threadSeconds()
	f()
	secs := threadSeconds() - start
	debug.SetGCPercent(gcPct)
	runtime.UnlockOSThread()
	return secs * 1e9 / float64(ops)
}

// hostPerfCorpus boots a Veil CVM, runs the sqlite workload against it and
// returns the CVM whose recorder now holds the export corpus.
func hostPerfCorpus(iters int) (*cvm.CVM, error) {
	w := workloads.SQLite(iters)
	c, err := cvm.Boot(cvm.Options{
		MemBytes: benchMem,
		VCPUs:    1,
		Veil:     true,
		LogPages: 2048,
		Rand:     rng(8800),
		Recorder: obs.NewRecorder(hostPerfRingCap),
	})
	if err != nil {
		return nil, err
	}
	auditBoot(c)
	if err := w.Setup(c); err != nil {
		return nil, err
	}
	prog := w.Build(c)
	p := c.K.Spawn(w.Name)
	lc := &sdk.DirectLibc{K: c.K, P: p}
	if rc := prog.Main(lc, w.Args); rc != 0 {
		return nil, fmt.Errorf("bench: hostperf corpus run exited %d", rc)
	}
	return c, nil
}

// countWriter counts bytes; the render benchmarks write into it so the
// measured loop performs the full exporter call without buffering costs.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// exportPooled renders both text exporters (Prometheus + summary).
func exportPooled(w io.Writer, rec *obs.Recorder) error {
	if err := obs.WritePrometheus(w, rec); err != nil {
		return err
	}
	return obs.WriteSummary(w, rec)
}

// hostPerfExport measures the export path on the corpus recorder.
func hostPerfExport(r *HostPerfResult, rec *obs.Recorder) error {
	var cw countWriter
	if err := exportPooled(&cw, rec); err != nil {
		return err
	}
	r.ExportBytes = cw.n
	r.ExportEvents = rec.Total()

	const rounds = 400
	var err error
	r.HostNsExportPooled = hostNsPerOp(rounds, func() {
		var w countWriter
		for i := 0; i < rounds && err == nil; i++ {
			err = exportPooled(&w, rec)
		}
	})
	if err != nil {
		return err
	}
	r.ExportAllocsPooled = testing.AllocsPerRun(20, func() {
		var w countWriter
		_ = exportPooled(&w, rec)
	})
	return nil
}

// hostPerfRecord measures the sharded ring's steady-state Record path.
func hostPerfRecord(r *HostPerfResult) {
	rec := obs.NewRecorder(1 << 12)
	ev := obs.Event{TS: 1, Dur: 3, Arg1: 7, Class: obs.ClassSyscall, Kind: obs.Span, Span: 1, Parent: 2}
	// Fill the ring first so the measured loop runs the full hot path,
	// fold-on-evict included.
	for i := 0; i < 1<<12; i++ {
		rec.Record(ev)
	}
	const events = 1 << 18
	r.HostNsPerEvent = hostNsPerOp(events, func() {
		for i := 0; i < events; i++ {
			ev.TS++
			rec.Record(ev)
		}
	})
	r.RecordAllocsPerOp = testing.AllocsPerRun(1000, func() { rec.Record(ev) })
}

// hostPerfMem measures the memory-translate path over the mempath layout:
// a sweep loads every 64-bit word of all 512 mapped pages through
// per-access AccessContext loads.
func hostPerfMem(r *HostPerfResult) error {
	b, err := NewMemPathBench()
	if err != nil {
		return err
	}
	defer b.m.Release()
	const rounds = 4
	perSweep := uint64(memPathPages * (snp.PageSize / 8))
	r.MemAccesses = perSweep

	sweep := func() error {
		for i := 0; i < memPathPages; i++ {
			va := memPathVA(i)
			for off := uint64(0); off < snp.PageSize; off += 8 {
				if _, err := b.ctx.ReadU64(va + off); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Warm the page tables and TLB outside the window.
	if err := sweep(); err != nil {
		return err
	}
	r.HostNsPerAccessScalar = hostNsPerOp(rounds*perSweep, func() {
		for i := 0; i < rounds && err == nil; i++ {
			err = sweep()
		}
	})
	return err
}

// hostPerfTask is one unit of the fan-out curve: a small standalone
// machine (backing drawn from the snp boot pool) swept word by word. Tasks are fully independent, so ideal scaling is linear.
func hostPerfTask() error {
	const taskMem = 4 << 20
	const taskPages = 64
	m := snp.NewMachine(snp.Config{MemBytes: taskMem, VCPUs: 1})
	defer m.Release()
	for p := uint64(0); p < taskMem; p += snp.PageSize {
		if err := m.HVAssignPage(p); err != nil {
			return err
		}
		if err := m.PValidate(snp.VMPL0, p, true); err != nil {
			return err
		}
	}
	alloc, err := mm.NewPhysAllocator(memPathLo, taskMem)
	if err != nil {
		return err
	}
	as, err := mm.NewAddressSpace(m, snp.VMPL0, poolFrames{alloc})
	if err != nil {
		return err
	}
	for i := 0; i < taskPages; i++ {
		frame, err := alloc.Alloc()
		if err != nil {
			return err
		}
		if err := as.Map(memPathBase+uint64(i)*snp.PageSize, frame, snp.PTEWrite|snp.PTEUser); err != nil {
			return err
		}
	}
	ctx := as.Context(snp.CPL0)
	for round := 0; round < 40; round++ {
		for i := 0; i < taskPages; i++ {
			va := memPathBase + uint64(i)*snp.PageSize
			for off := uint64(0); off < snp.PageSize; off += 64 {
				if err := ctx.WriteU64(va+off, uint64(round)+off); err != nil {
					return err
				}
				if _, err := ctx.ReadU64(va + off); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// hostPerfScale times the fixed task bundle under growing worker counts,
// workers claiming tasks from a shared atomic queue exactly like the
// veil-bench -j pool.
func hostPerfScale(r *HostPerfResult) error {
	maxWorkers := runtime.NumCPU()
	tasks := maxWorkers * 2
	if tasks < 8 {
		tasks = 8
	}
	r.ScaleTasks = tasks

	runAt := func(workers int) (float64, error) {
		var next atomic.Int64
		var mu sync.Mutex
		var firstErr error
		var wg sync.WaitGroup
		wg.Add(workers)
		start := time.Now()
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= tasks {
						return
					}
					if err := hostPerfTask(); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return 0, firstErr
		}
		return time.Since(start).Seconds(), nil
	}

	var serial float64
	for workers := 1; ; workers *= 2 {
		if workers > maxWorkers {
			workers = maxWorkers
		}
		secs, err := runAt(workers)
		if err != nil {
			return err
		}
		pt := HostPerfScalePoint{Workers: workers, HostSeconds: secs}
		if workers == 1 {
			serial = secs
		}
		if secs > 0 {
			pt.Speedup = serial / secs
		}
		r.Scale = append(r.Scale, pt)
		if workers == maxWorkers {
			return nil
		}
	}
}

// HostPerf runs the full host-throughput measurement. iters sizes the
// sqlite corpus run (the obs experiment's workload shape).
func HostPerf(iters int) (HostPerfResult, error) {
	if iters <= 0 {
		iters = 2000
	}
	r := HostPerfResult{Iterations: iters}
	c, err := hostPerfCorpus(iters)
	if err != nil {
		return HostPerfResult{}, err
	}
	err = hostPerfExport(&r, c.M.Recorder())
	releaseCVM(c)
	if err != nil {
		return HostPerfResult{}, err
	}
	hostPerfRecord(&r)
	if err := hostPerfMem(&r); err != nil {
		return HostPerfResult{}, err
	}
	if err := hostPerfScale(&r); err != nil {
		return HostPerfResult{}, err
	}
	return r, nil
}

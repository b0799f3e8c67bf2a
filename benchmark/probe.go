package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// Shared 2-CPU cloud machines change speed by up to 1.8x for seconds at a
// time (other tenants' load), which no amount of averaging inside a
// fifteen-second run removes: the run-to-run spread of raw host times was
// 15-35%. Each window therefore samples the machine's current speed with
// a fixed probe — a stdlib-only mix of the simulator's host work: small
// copies, table updates, hashing — run at even request intervals, and the
// host-clock metrics are scaled by how slow the probe ran, which brings the
// spread down to 3-6%. The probe's own time is taken out of the window
// first. The probe runs no veil code, so a change to the simulator moves
// the workload's time and not the yardstick.

// probesPerRound is how many probes a window takes, spread evenly over its
// requests.
const probesPerRound = 32

// probeNominal is the probe's duration on an unloaded reference machine
// (2-CPU x86 sandbox); host metrics are reported at that speed.
const probeNominal = 130 * time.Microsecond

// probeIters sizes the probe at about probeNominal: long enough that its
// cache warm-up after the workload is a small part of it.
const probeIters = 2400

// The probe's state is fixed-size arrays: a Go map's per-process random
// hash seed made the probe's own time differ by up to 7% between
// processes, which is noise the normalization would add.
var (
	probeSink  uint64
	probeSrc   [4096]byte
	probeDst   [4096]byte
	probeTable [1024]uint64
)

func probeKernel() {
	x := uint64(1)
	for i := 0; i < probeIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		probeSrc[x%4096] = byte(x)
		copy(probeDst[:], probeSrc[:])
		probeTable[(x>>7)%1024] += x
		if i%8 == 0 {
			s := sha256.Sum256(probeDst[:128])
			probeSink += uint64(s[0])
		}
	}
}

// probe runs the kernel once inside the window and records its time.
func (r *round) probe() {
	t := time.Now()
	probeKernel()
	d := time.Since(t)
	r.sampleMem()
	r.probeTime += time.Since(t)
	r.probeRuns = append(r.probeRuns, d)
}

// slowdown is how much slower than nominal the machine ran during the
// window: the median probe time (robust to a probe caught by preemption)
// over probeNominal.
func (r *round) slowdown() float64 {
	if len(r.probeRuns) == 0 {
		return 1
	}
	ds := append([]time.Duration(nil), r.probeRuns...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return float64(ds[len(ds)/2]) / float64(probeNominal)
}

// hostWall and hostCPU are the window's host times without the probes,
// scaled to the reference speed.
func (r *round) hostWall() float64 { return (r.wall - r.probeTime).Seconds() / r.slowdown() }
func (r *round) hostCPU() float64  { return (r.cpu - r.probeTime).Seconds() / r.slowdown() }

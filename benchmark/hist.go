package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear histogram of non-negative integer samples (virtual
// cycles or host nanoseconds). Values below 2^(histSubBits+1) get one
// bucket each; above that every power-of-two octave is split into
// 2^histSubBits equal buckets, so a bucket's width is at most 1/128 of its
// lower edge and a reported quantile (the bucket midpoint) is within 0.4%
// of the exact sample. obs.Histogram's log2 buckets cannot resolve the 10%
// moves the benchmark's bounds are set at; this one can.
type hist struct {
	counts []uint64
	n      uint64
}

const histSubBits = 7

func histIndex(v uint64) int {
	if v < 1<<(histSubBits+1) {
		return int(v)
	}
	shift := bits.Len64(v) - (histSubBits + 1)
	return 1<<(histSubBits+1) + (shift-1)<<histSubBits + int(v>>shift) - 1<<histSubBits
}

// histBucket returns the lowest value and the width of bucket i.
func histBucket(i int) (lo, width uint64) {
	if i < 1<<(histSubBits+1) {
		return uint64(i), 1
	}
	j := i - 1<<(histSubBits+1)
	shift := j>>histSubBits + 1
	mant := uint64(j&(1<<histSubBits-1)) + 1<<histSubBits
	return mant << shift, 1 << shift
}

func (h *hist) observe(v uint64) {
	i := histIndex(v)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1+i/4)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) count() uint64 { return h.n }

// quantile returns the nearest-rank q-quantile: the smallest sample with at
// least q·n samples at or below it, reported as its bucket's midpoint.
// Zero for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, w := histBucket(i)
			return float64(lo) + float64(w-1)/2
		}
	}
	return 0
}

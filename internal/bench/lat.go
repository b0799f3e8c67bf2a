package bench

import (
	"sort"
	"time"

	"veil/internal/obs"
)

// wallSeconds is the wall-clock fallback behind threadSeconds.
func wallSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// median returns the middle value of xs (mean of the middle two for even
// lengths, 0 for empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// LatSummary is a compact latency digest in virtual cycles (or rounds,
// where noted): the percentile triple the experiment JSONs carry instead
// of whole histograms. Deterministic workloads produce identical
// summaries on every run, which is what lets CI pin them byte-for-byte.
type LatSummary struct {
	Count uint64
	P50   uint64
	P90   uint64
	P99   uint64
	Mean  float64
}

// latSummary digests one histogram (nil or empty → the zero summary).
func latSummary(h *obs.Histogram) LatSummary {
	if h == nil || h.Count() == 0 {
		return LatSummary{}
	}
	return LatSummary{
		Count: h.Count(),
		P50:   h.Quantile(0.5),
		P90:   h.Quantile(0.9),
		P99:   h.Quantile(0.99),
		Mean:  h.Mean(),
	}
}

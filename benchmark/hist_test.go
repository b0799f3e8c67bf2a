package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the nearest-rank quantile of sorted xs.
func exactQuantile(xs []uint64, q float64) uint64 {
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func TestHistQuantilesMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() uint64{
		"small":    func() uint64 { return uint64(rng.Intn(300)) },
		"uniform":  func() uint64 { return 20_000 + uint64(rng.Intn(15_000)) },
		"lognorm":  func() uint64 { return uint64(math.Exp(rng.NormFloat64()*2 + 12)) },
		"bimodal":  func() uint64 { return []uint64{61_000, 4_150_000}[rng.Intn(2)] + uint64(rng.Intn(5000)) },
		"constant": func() uint64 { return 22_335 },
	}
	for name, draw := range dists {
		var h hist
		xs := make([]uint64, 20_000)
		for i := range xs {
			xs[i] = draw()
			h.observe(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		if h.count() != uint64(len(xs)) {
			t.Fatalf("%s: count %d, want %d", name, h.count(), len(xs))
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want := float64(exactQuantile(xs, q))
			got := h.quantile(q)
			if math.Abs(got-want) > 0.01*want+0.5 {
				t.Errorf("%s p%g = %g, exact %g (error %.3f%%)", name, q*100, got, want, 100*math.Abs(got-want)/want)
			}
		}
	}
}

func TestHistMergeEqualsOneHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var a, b, all hist
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Int63n(1 << 40))
		all.observe(v)
		if i%3 == 0 {
			a.observe(v)
		} else {
			b.observe(v)
		}
	}
	a.merge(&b)
	for _, q := range []float64{0.5, 0.99} {
		if a.quantile(q) != all.quantile(q) {
			t.Errorf("p%g: merged %g, direct %g", q*100, a.quantile(q), all.quantile(q))
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram quantile is not 0")
	}
}

package obs

import "math/bits"

// numBuckets covers the whole uint64 range: bucket 0 holds the value 0 and
// bucket b (1 ≤ b ≤ 64) holds values in [2^(b-1), 2^b).
const numBuckets = 65

// Histogram is a log₂-bucketed distribution of virtual-cycle durations.
// Observations are exact-count per power-of-two bucket, so two identical
// runs produce identical histograms.
type Histogram struct {
	counts   [numBuckets]uint64
	n        uint64
	sum      uint64
	min, max uint64
}

// bucketOf returns the bucket index for v: 0 for v == 0, otherwise
// bits.Len64(v), i.e. floor(log2(v)) + 1.
func bucketOf(v uint64) int {
	if v == 0 {
		return 0
	}
	return bits.Len64(v)
}

// BucketHigh returns the largest value bucket b holds.
func BucketHigh(b int) uint64 {
	if b <= 0 {
		return 0
	}
	if b >= 64 {
		return ^uint64(0)
	}
	return 1<<b - 1
}

// Observe adds one value.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketOf(v)]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Merge accumulates another histogram into this one (bucket-wise; min and
// max combine respecting emptiness). Deterministic and order-independent,
// which is what lets per-shard histograms merge into one snapshot.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for b := 0; b < numBuckets; b++ {
		h.counts[b] += o.counts[b]
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the
// inclusive upper edge of the first bucket whose cumulative count reaches
// q·n, clamped to the observed [min, max] so exact distributions (e.g. a
// constant cost) report exact values.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b := 0; b < numBuckets; b++ {
		cum += h.counts[b]
		if cum >= target {
			v := BucketHigh(b)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// MaxKinds bounds the attribution table; the snp cost model defines ~a
// dozen kinds, so 32 leaves ample headroom for future kinds without
// reallocating on the hot path.
const MaxKinds = 32

// MaxServices bounds the per-service latency histograms; the IDCB
// protocol defines four service ids, so 8 leaves headroom.
const MaxServices = 8

// Metrics is a detached snapshot of a Recorder's aggregation state:
// per-class event counters, per-class span histograms, per-service and
// per-request (root span) latency histograms, per-VCPU ring-request
// latency, the per-class drop counters and the cycle-attribution table
// fed by the virtual clock's Charge hook. Build one with
// Recorder.Metrics(); it does not change as recording continues.
type Metrics struct {
	agg            shardAgg
	dropped        uint64
	droppedByClass [NumClasses]uint64
	requests       []Histogram // per-VCPU root-span latency (index = VCPU)
	ringLat        []Histogram // per-VCPU ring submit→complete latency
	kindCycles     [MaxKinds]uint64
	kindNames      []string
	svcNames       []string
}

// clone returns a deep copy: the struct (aggregates, drop counters,
// attribution table and name-slice headers — names are set-once, so
// sharing their backing arrays is safe) plus fresh per-VCPU histogram
// slices. The Recorder's snapshot memoization clones on both store and
// hit, which is what keeps every returned *Metrics detached.
func (m *Metrics) clone() *Metrics {
	c := *m
	c.requests = append([]Histogram(nil), m.requests...)
	c.ringLat = append([]Histogram(nil), m.ringLat...)
	return &c
}

// Count returns the number of recorded events of class c (retained plus
// evicted — eviction never loses metrics).
func (m *Metrics) Count(c Class) uint64 {
	if m == nil || c >= NumClasses {
		return 0
	}
	return m.agg.counts[c]
}

// SpanHist returns the duration histogram of span class c (nil when the
// registry is nil or c is out of range).
func (m *Metrics) SpanHist(c Class) *Histogram {
	if m == nil || c >= NumClasses {
		return nil
	}
	return &m.agg.spans[c]
}

// ServiceHist returns the dispatch-latency histogram of service id svc
// (ClassService span durations keyed by Arg1), or nil when out of range.
func (m *Metrics) ServiceHist(svc int) *Histogram {
	if m == nil || svc < 0 || svc >= MaxServices {
		return nil
	}
	return &m.agg.svc[svc]
}

// ServiceName returns the display name registered for service id svc
// (empty when none was registered).
func (m *Metrics) ServiceName(svc int) string {
	if m == nil || svc < 0 || svc >= len(m.svcNames) {
		return ""
	}
	return m.svcNames[svc]
}

// NumServices returns how many service names are registered.
func (m *Metrics) NumServices() int {
	if m == nil {
		return 0
	}
	return len(m.svcNames)
}

// RequestHist returns the per-request latency histogram of one VCPU: the
// durations of its root spans (span open→close of top-level requests).
// Nil when the registry is nil or the VCPU has no shard.
func (m *Metrics) RequestHist(vcpu int) *Histogram {
	if m == nil || vcpu < 0 || vcpu >= len(m.requests) {
		return nil
	}
	return &m.requests[vcpu]
}

// RequestHistAll returns the root-span latency histogram merged over all
// VCPUs.
func (m *Metrics) RequestHistAll() *Histogram {
	if m == nil {
		return nil
	}
	return &m.agg.requests
}

// RingLatHist returns one VCPU's batched-ring request latency histogram
// (virtual cycles from SubmitSrv to the completion being observed), fed
// by Recorder.RecordRingLatency. Nil when the VCPU has no shard.
func (m *Metrics) RingLatHist(vcpu int) *Histogram {
	if m == nil || vcpu < 0 || vcpu >= len(m.ringLat) {
		return nil
	}
	return &m.ringLat[vcpu]
}

// VCPUs returns the number of shards the snapshot covers.
func (m *Metrics) VCPUs() int {
	if m == nil {
		return 0
	}
	return len(m.requests)
}

// DroppedByClass returns how many events of class c were evicted.
func (m *Metrics) DroppedByClass(c Class) uint64 {
	if m == nil || c >= NumClasses {
		return 0
	}
	return m.droppedByClass[c]
}

// CyclesByKind returns a copy of the attribution table (index = the
// producer's cost-kind value).
func (m *Metrics) CyclesByKind() []uint64 {
	if m == nil {
		return nil
	}
	out := make([]uint64, MaxKinds)
	copy(out, m.kindCycles[:])
	return out
}

// KindName returns the display name registered for cost kind k.
func (m *Metrics) KindName(k int) string {
	if m == nil || k < 0 || k >= len(m.kindNames) {
		return ""
	}
	return m.kindNames[k]
}

// NumKinds returns how many cost-kind names are registered.
func (m *Metrics) NumKinds() int {
	if m == nil {
		return 0
	}
	return len(m.kindNames)
}

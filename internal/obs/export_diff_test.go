package obs

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the export golden files")

// buildRichRecorder populates a recorder with a deterministic but varied
// load: every class, multiple VCPUs, root and nested spans, service
// dispatches, ring latencies, cycle attribution, aux counters and gauges,
// and (with a small capacity) ring eviction. It exercises every branch of
// the Prometheus exporter.
func buildRichRecorder(seed int64, capacity int) *Recorder {
	r := NewRecorder(capacity)
	r.SetKindNames([]string{"vmexit", "rmp", "crypto", "sched"})
	r.SetServiceNames([]string{"kci", "enc", "chn"})
	rng := rand.New(rand.NewSource(seed))
	kinds := []uint64{0, 0, 0, 0}
	var ts uint64
	span := uint64(0)
	for i := 0; i < 400; i++ {
		ts += uint64(rng.Intn(5000))
		e := Event{
			TS:    ts,
			Class: Class(rng.Intn(int(NumClasses))),
			VCPU:  int32(rng.Intn(3)),
			VMPL:  int16(rng.Intn(4)) - 1,
			Arg1:  uint64(rng.Intn(16)),
			Arg2:  uint64(rng.Intn(1 << 12)),
		}
		if rng.Intn(2) == 0 {
			e.Kind = Span
			e.Dur = uint64(rng.Intn(100000))
			span++
			e.Span = span
			if span > 1 && rng.Intn(3) > 0 {
				e.Parent = uint64(rng.Intn(int(span-1)) + 1)
			}
		}
		r.Record(e)
		if rng.Intn(4) == 0 {
			r.RecordRingLatency(e.VCPU, uint64(rng.Intn(1<<16)))
		}
		kinds[rng.Intn(len(kinds))] += uint64(rng.Intn(900))
	}
	// One boot-length enclave session root span: the fold rule must keep
	// it out of the request histogram (the BENCH_obs Mean≫P99 anomaly).
	span++
	r.Record(Event{TS: ts + 1, Dur: ts, Kind: Span, Class: ClassEnclaveEnter, Span: span})
	r.SetCycleSource(func() []uint64 { return kinds })
	r.AddAuxCounters(func() ([]string, []uint64) {
		return []string{"tlb_hits", "tlb_misses"}, []uint64{1234567, 89}
	})
	r.AddAuxGauges(func() ([]string, []float64) {
		return []string{"tlb_hit_ratio"}, []float64{0.999928}
	})
	return r
}

// TestExportDifferential pins the pooled Prometheus exporter byte-for-byte
// to its fmt-based reference implementation across seeds, including
// eviction-heavy recorders and merged pages of two and three machines
// (the last machine's ring overflowing).
func TestExportDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, capacity := range []int{64, 1 << 12} { // with and without eviction
			r := buildRichRecorder(seed, capacity)
			var pooled, ref bytes.Buffer
			if err := WritePrometheus(&pooled, r); err != nil {
				t.Fatal(err)
			}
			if err := WritePrometheusReference(&ref, r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pooled.Bytes(), ref.Bytes()) {
				t.Fatalf("seed %d cap %d: pooled Prometheus page diverged from reference:\n%s",
					seed, capacity, firstDiff(pooled.Bytes(), ref.Bytes()))
			}
		}
		for _, n := range []int{2, 3} {
			recs := make([]*Recorder, n)
			for i := range recs {
				capacity := 1 << 12
				if i == n-1 {
					capacity = 64
				}
				recs[i] = buildRichRecorder(seed*10+int64(i), capacity)
				recs[i].SetMachine(i)
			}
			var pooled, ref bytes.Buffer
			if err := WritePrometheus(&pooled, recs...); err != nil {
				t.Fatal(err)
			}
			if err := WritePrometheusReference(&ref, recs...); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pooled.Bytes(), ref.Bytes()) {
				t.Fatalf("seed %d, %d machines: pooled Prometheus page diverged from reference:\n%s",
					seed, n, firstDiff(pooled.Bytes(), ref.Bytes()))
			}
		}
	}
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("at byte %d:\n  pooled: %q\n  ref:    %q", i, a[lo:min(i+40, len(a))], b[lo:min(i+40, len(b))])
		}
	}
	return fmt.Sprintf("length mismatch: pooled %d bytes, ref %d bytes", len(a), len(b))
}

// TestExportGolden pins one fixed export against a committed golden file,
// so a formatting regression that slipped past the differential pair
// (e.g. both sides changing together) is still caught.
func TestExportGolden(t *testing.T) {
	r := buildRichRecorder(42, 256)
	var got bytes.Buffer
	if err := WritePrometheus(&got, r); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "export.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("export diverged from golden:\n%s", firstDiff(got.Bytes(), want))
	}
}

// TestExportZeroAlloc pins the append-based Prometheus formatter at zero
// allocations when given pre-grown scratch — the property the pooled
// WritePrometheus fast path relies on. The formatter cases omit aux
// counter sources, since concatenating them allocates by design; the
// final case bounds the exported writer with the sources in place.
func TestExportZeroAlloc(t *testing.T) {
	r := buildRichRecorder(7, 1<<12)
	r.aux, r.gauges = nil, nil
	m := r.Metrics()
	recs, ms := []*Recorder{r}, []*Metrics{m}
	buf := make([]byte, 0, 64<<10)
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendPrometheus(buf[:0], recs, ms)
	})
	if allocs != 0 {
		t.Errorf("appendPrometheus allocates %.1f times per page, want 0", allocs)
	}
	// The variadic wrapper must keep its recorder slice and snapshot list
	// on the stack too.
	allocs = testing.AllocsPerRun(100, func() {
		if err := WritePrometheus(io.Discard, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WritePrometheus allocates %.1f times per page, want 0", allocs)
	}

	// The exported entry point on a recorder as producers register it,
	// aux counter and gauge sources included.
	full := buildRichRecorder(7, 1<<12)
	allocs = testing.AllocsPerRun(100, func() {
		if err := WritePrometheus(io.Discard, full); err != nil {
			t.Fatal(err)
		}
	})
	// Each aux source returns fresh name/value slices and AuxCounters/
	// AuxGauges concatenate them: 2 allocations apiece per source, per
	// page. The bound pins that cost so the rest of the page stays free.
	if allocs > 8 {
		t.Errorf("WritePrometheus with aux sources allocates %.1f times per page, want <= 8", allocs)
	}
}

// TestRequestLatExcludesEnclaveSessions locks in the fold rule directly:
// a workload-long enclave session must not appear in the request
// histogram, while genuine root spans must.
func TestRequestLatExcludesEnclaveSessions(t *testing.T) {
	r := NewRecorder(64)
	r.Record(Event{TS: 100, Dur: 50, Kind: Span, Class: ClassRoundTrip, Span: 1})
	r.Record(Event{TS: 200, Dur: 60, Kind: Span, Class: ClassSyscall, Span: 2, Parent: 1})
	r.Record(Event{TS: 1 << 30, Dur: 1 << 30, Kind: Span, Class: ClassEnclaveEnter, Span: 3})
	m := r.Metrics()
	h := m.RequestHistAll()
	if h.Count() != 1 {
		t.Fatalf("request histogram holds %d observations, want 1 (the round trip only)", h.Count())
	}
	if h.max != 50 {
		t.Fatalf("request histogram max = %d, want 50: the enclave session leaked in", h.max)
	}
	if got := m.SpanHist(ClassEnclaveEnter).Count(); got != 1 {
		t.Fatalf("enclave-enter span histogram count = %d, want 1 (sessions keep their own class bucket)", got)
	}
}

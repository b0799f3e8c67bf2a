package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"veil/internal/fabric"
)

// smokeScale shrinks every workload to a few hundred requests per round.
const smokeScale = 0.005

// specNames reads one metric list of BENCHMARK.json.
func specNames(t *testing.T, list string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[list], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func metricNames(res *result) []string {
	var names []string
	for _, m := range res.metrics {
		names = append(names, m.name)
	}
	sort.Strings(names)
	return names
}

func metricValue(res *result, name string) float64 {
	for _, m := range res.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

func mustRun(t *testing.T, w workload, trace bool, rounds int) *result {
	t.Helper()
	res := run(w, options{seed: 1, scale: smokeScale, trace: trace, minRounds: rounds})
	if !res.correct() {
		t.Fatalf("%s: %d of %d failed: %s", w.name, res.failed, res.attempted, strings.Join(res.problems, "; "))
	}
	if _, err := res.json(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSmoke runs every workload small, untraced twice and traced once.
func TestSmoke(t *testing.T) {
	e2e, layers := specNames(t, "end_to_end"), specNames(t, "per_layer")
	specWorkloads := specNames(t, "workloads")
	names := workloadNames()
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(specWorkloads, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", names, specWorkloads)
	}
	for _, w := range catalog() {
		t.Run(w.name, func(t *testing.T) {
			a := mustRun(t, w, false, 1)
			if got := metricNames(a); strings.Join(got, ",") != strings.Join(e2e, ",") {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, e2e)
			}
			b := mustRun(t, w, false, 1)
			for _, m := range []string{"vcyc_per_op", "vcyc_p50", "vcyc_p99"} {
				if metricValue(a, m) != metricValue(b, m) {
					t.Errorf("%s differs between same-seed runs: %v vs %v", m, metricValue(a, m), metricValue(b, m))
				}
			}

			tr := mustRun(t, w, true, 2)
			if got := metricNames(tr); strings.Join(got, ",") != strings.Join(layers, ",") {
				t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, layers)
			}
			// The cost kinds partition the virtual cycles exactly (up to the
			// division by the request count).
			sum := 0.0
			for _, m := range tr.metrics {
				if strings.HasPrefix(m.name, "vcyc.") {
					sum += m.value
				}
			}
			if want := metricValue(a, "vcyc_per_op"); math.Abs(sum-want) > 1e-9*want {
				t.Errorf("cost kinds sum to %v cycles/op, vcyc_per_op is %v", sum, want)
			}
			shares := 0.0
			for _, m := range tr.metrics {
				if strings.HasPrefix(m.name, "host_share.") {
					shares += m.value
				}
			}
			if shares != 0 && math.Abs(shares-100) > 1 {
				t.Errorf("host shares sum to %.3f%%", shares)
			}
		})
	}
}

// TestUndersizedStoreFails: a VeilS-Log store too small for the run drops
// appends, and the run must report them as failures.
func TestUndersizedStoreFails(t *testing.T) {
	w := workload{name: "smp-ring", round: func(r *round) error { return ringRound(r, 8) }}
	res := run(w, options{seed: 1, scale: 0.05, minRounds: 1})
	if res.correct() || res.failRatio() <= 0 {
		t.Fatalf("undersized store: fail_ratio %v, correct %v", res.failRatio(), res.correct())
	}
	if !strings.Contains(strings.Join(res.problems, "\n"), "dropped") {
		t.Errorf("failures do not name the dropped records: %q", res.problems)
	}
}

// TestTamperedCiphertextFails: a host that flips one ciphertext byte on
// the fabric makes VeilS-Channel drop the frame; the run must count the
// lost request as failed.
func TestTamperedCiphertextFails(t *testing.T) {
	tamper := func(f *fabric.Fabric) {
		frames := 0
		f.SetInterceptor(func(m fabric.Message) []fabric.Message {
			frames++
			if frames == 5 {
				m.Payload = append([]byte(nil), m.Payload...)
				m.Payload[len(m.Payload)-1] ^= 0x01
			}
			return []fabric.Message{m}
		})
	}
	w := workload{name: "fleet-echo", round: func(r *round) error { return fleetRound(r, tamper) }}
	res := run(w, options{seed: 1, scale: smokeScale, trace: true, minRounds: 2})
	if res.correct() || res.failRatio() <= 0 {
		t.Fatalf("tampered fabric: fail_ratio %v, correct %v", res.failRatio(), res.correct())
	}
	if d := metricValue(res, "chn.dropped"); !(d > 0) {
		t.Errorf("chn.dropped = %v, want > 0", d)
	}
}

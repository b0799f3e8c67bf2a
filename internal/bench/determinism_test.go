package bench

import (
	"reflect"
	"runtime"
	"testing"

	"veil/internal/workloads"
)

// The simulator's headline reproducibility claim: identical runs produce
// identical cycle counts and traces, bit for bit. EXPERIMENTS.md's numbers
// are therefore exact, not averages.

func TestMeasurementsAreDeterministic(t *testing.T) {
	w := workloads.SQLite(300)
	m1, err := Run(w, ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(w, ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatalf("native runs differ:\n%+v\n%+v", m1, m2)
	}
	e1, err := Run(w, ModeEnclave)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Run(w, ModeEnclave)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("enclave runs differ:\n%+v\n%+v", e1, e2)
	}
}

func TestSwitchCostDeterministic(t *testing.T) {
	r1, err := DomainSwitchCost(500)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DomainSwitchCost(500)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("switch measurements differ: %+v vs %+v", r1, r2)
	}
}

func TestFig4Deterministic(t *testing.T) {
	a, _, err := Fig4Attr(100)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Fig4Attr(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fig4 row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// checkDeterministic runs an experiment twice, then once more at
// GOMAXPROCS=1: every result must be deeply equal, so neither a rerun nor
// host parallelism can move a committed value.
func checkDeterministic[R any](t *testing.T, name string, run func() (R, error)) {
	t.Helper()
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s runs differ:\n%+v\n%+v", name, a, b)
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	c, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("%s run diverged under GOMAXPROCS=1:\n%+v\n%+v", name, a, c)
	}
}

// The SMP determinism gate: every BENCH_smp.json value is virtual cycles
// from fixed seeds — per-mode costs, per-VCPU latency digests, fairness.
func TestSMPDeterministic(t *testing.T) {
	checkDeterministic(t, "SMP", SMP)
}

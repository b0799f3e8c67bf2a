package sched

import (
	"errors"
	"testing"

	"veil/internal/obs"
	"veil/internal/snp"
)

// TaskFunc adapts a function to the Task interface.
type TaskFunc func(vcpu int) (Status, error)

// Step calls f.
func (f TaskFunc) Step(vcpu int) (Status, error) { return f(vcpu) }

func testMachine(vcpus int) *snp.Machine {
	return snp.NewMachine(snp.Config{MemBytes: 4 * snp.PageSize, VCPUs: vcpus})
}

// countingTask yields n times (recording each slice into *order), then Done.
type countingTask struct {
	id    int
	left  int
	order *[]int
}

func (t *countingTask) Step(vcpu int) (Status, error) {
	*t.order = append(*t.order, t.id)
	t.left--
	if t.left <= 0 {
		return Done, nil
	}
	return Yield, nil
}

func runOrder(t *testing.T, seed int64, weights []int) []int {
	t.Helper()
	m := testMachine(len(weights))
	s := New(Config{Machine: m, VCPUs: len(weights), Seed: seed})
	var order []int
	for i, w := range weights {
		if err := s.Add(i, w, &countingTask{id: i, left: 20, order: &order}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return order
}

func TestDeterministicInterleaving(t *testing.T) {
	weights := []int{1, 3, 2}
	a := runOrder(t, 42, weights)
	b := runOrder(t, 42, weights)
	if len(a) != len(b) {
		t.Fatalf("slice counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving diverged at slice %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := runOrder(t, 43, weights)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 60-slice interleavings")
	}
}

// One VCPU, no drains: the scheduler degenerates to "step until done".
func TestSingleVCPUDegenerate(t *testing.T) {
	m := testMachine(1)
	s := New(Config{Machine: m, VCPUs: 1, Seed: 7})
	var order []int
	if err := s.Add(0, 1, &countingTask{id: 0, left: 5, order: &order}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 5 || st.Slices != 5 || st.PerVCPU[0].Slices != 5 {
		t.Fatalf("want 5 consecutive slices on VCPU 0, got order=%v stats=%+v", order, st)
	}
}

func deniedIntrRoutes(rec *obs.Recorder) []uint64 {
	var vcpus []uint64
	for _, e := range rec.Events() {
		if e.Class == obs.ClassDenied && e.Arg1 == uint64(snp.DeniedIntrRoute) {
			vcpus = append(vcpus, e.Arg2)
		}
	}
	return vcpus
}

// A task that blocks with no drain pending and no one to wake it must end
// in ErrStalled with DeniedIntrRoute evidence — not an infinite loop.
func TestBlockedWithoutWakeSourceStalls(t *testing.T) {
	m := testMachine(1)
	rec := obs.NewRecorder(256)
	m.SetRecorder(rec)
	s := New(Config{Machine: m, VCPUs: 1, Seed: 1})
	if err := s.Add(0, 1, TaskFunc(func(vcpu int) (Status, error) {
		return Blocked, nil
	})); err != nil {
		t.Fatal(err)
	}
	_, err := s.Run()
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("Run = %v, want ErrStalled", err)
	}
	if got := deniedIntrRoutes(rec); len(got) != 1 || got[0] != 0 {
		t.Fatalf("DeniedIntrRoute evidence = %v, want [0]", got)
	}
}

// A drain that owed its blocked VCPU a completion interrupt but did not wake
// it (the host swallowed or misrouted it) must be caught at drain time.
func TestLostWakeupDetectedAtDrain(t *testing.T) {
	m := testMachine(1)
	rec := obs.NewRecorder(256)
	m.SetRecorder(rec)
	s := New(Config{Machine: m, VCPUs: 1, Seed: 1})
	posted := false
	if err := s.Add(0, 1, TaskFunc(func(vcpu int) (Status, error) {
		if !posted {
			posted = true
			s.PostDrain(0, true, func() error { return nil }) // interrupt never arrives
		}
		return Blocked, nil
	})); err != nil {
		t.Fatal(err)
	}
	_, err := s.Run()
	if !errors.Is(err, ErrLostWakeup) {
		t.Fatalf("Run = %v, want ErrLostWakeup", err)
	}
	if got := deniedIntrRoutes(rec); len(got) != 1 || got[0] != 0 {
		t.Fatalf("DeniedIntrRoute evidence = %v, want [0]", got)
	}
}

// A wake-up delivered while the task is still runnable (the completion
// raced the block) must cancel the next Blocked return, not get lost.
func TestWakeBeforeBlockNotLost(t *testing.T) {
	m := testMachine(1)
	s := New(Config{Machine: m, VCPUs: 1, Seed: 1})
	step := 0
	if err := s.Add(0, 1, TaskFunc(func(vcpu int) (Status, error) {
		step++
		switch step {
		case 1:
			s.Wake(0) // completion lands before we block
			return Blocked, nil
		default:
			return Done, nil
		}
	})); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v (the latched wake was lost)", err)
	}
	if step != 2 || st.Wakeups != 1 {
		t.Fatalf("step=%d wakeups=%d, want the cancelled block to re-run the task", step, st.Wakeups)
	}
}

// Drains are charged to the owning VCPU's ledger, not whoever's slice was
// current when the doorbell was posted.
func TestDrainAttribution(t *testing.T) {
	m := testMachine(2)
	s := New(Config{Machine: m, VCPUs: 2, Seed: 5, DrainLatency: 2})
	const drainCost = 777
	posted := false
	if err := s.Add(0, 1, TaskFunc(func(vcpu int) (Status, error) {
		if !posted {
			posted = true
			s.PostDrain(0, false, func() error {
				m.Clock().Charge(snp.CostCompute, drainCost)
				return nil
			})
			if len(s.drains) != 1 {
				t.Fatal("drain not queued")
			}
			return Yield, nil
		}
		return Done, nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(1, 1, &countingTask{id: 1, left: 8, order: new([]int)}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	v0, v1 := st.PerVCPU[0], st.PerVCPU[1]
	if v0.Drains != 1 || v0.DrainCycles != drainCost {
		t.Fatalf("VCPU 0 drain ledger = %d drains / %d cycles, want 1 / %d", v0.Drains, v0.DrainCycles, drainCost)
	}
	if v1.Drains != 0 || v1.DrainCycles != 0 {
		t.Fatalf("drain cycles leaked onto VCPU 1: %+v", v1)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]uint64{5, 5, 5, 5}); got != 1 {
		t.Fatalf("equal shares: %v, want 1", got)
	}
	if got := JainIndex([]uint64{100, 0, 0, 0}); got != 0.25 {
		t.Fatalf("one hog of four: %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 1 {
		t.Fatalf("empty: %v, want 1 (vacuously fair)", got)
	}
}

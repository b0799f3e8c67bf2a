package kernel

import "testing"

func TestPlaceProcessLeastLoadedLowestID(t *testing.T) {
	k := newNativeKernel(t, 3)
	var pids []int
	for i := 0; i < 6; i++ {
		pids = append(pids, k.Spawn("w").PID)
	}
	// Six processes over three VCPUs: round-robin by least-loaded with
	// lowest-id tie-breaks gives 0,1,2,0,1,2.
	want := []int{0, 1, 2, 0, 1, 2}
	for i, pid := range pids {
		v, err := k.PlaceProcess(pid)
		if err != nil {
			t.Fatal(err)
		}
		if v != want[i] {
			t.Fatalf("process %d placed on VCPU %d, want %d", i, v, want[i])
		}
	}
	loads := k.placeLoad
	for v, n := range loads {
		if n != 2 {
			t.Fatalf("VCPU %d load = %d, want 2 (loads %v)", v, n, loads)
		}
	}
}

func TestPlaceProcessMigration(t *testing.T) {
	k := newNativeKernel(t, 2)
	a, b := k.Spawn("a").PID, k.Spawn("b").PID
	if v, _ := k.PlaceProcess(a); v != 0 {
		t.Fatalf("first placement on VCPU %d, want 0", v)
	}
	if v, _ := k.PlaceProcess(b); v != 1 {
		t.Fatalf("second placement on VCPU %d, want 1", v)
	}
	// Re-placing a migrates it: VCPU 0 frees up first, so it stays at 0 —
	// but its old load must have been decremented, not double-counted.
	if v, _ := k.PlaceProcess(a); v != 0 {
		t.Fatalf("migration landed on VCPU %d, want 0", v)
	}
	if loads := k.placeLoad; loads[0] != 1 || loads[1] != 1 {
		t.Fatalf("loads after migration = %v, want [1 1]", loads)
	}
}

func TestPlaceProcessUnknownPID(t *testing.T) {
	k := newNativeKernel(t, 2)
	if _, err := k.PlaceProcess(99999); err == nil {
		t.Fatal("placed a PID that does not exist")
	}
}

package snp

import (
	"reflect"
	"testing"
)

// TestTraceSinceCoversEveryField is the drift test: Since is
// reflection-based, so any future counter added to Trace is subtracted
// automatically — this test proves it by driving every field.
func TestTraceSinceCoversEveryField(t *testing.T) {
	var cur, prev Trace
	cv := reflect.ValueOf(&cur).Elem()
	pv := reflect.ValueOf(&prev).Elem()
	for i := 0; i < cv.NumField(); i++ {
		if cv.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("Trace field %s is %s; Since requires every field to be uint64",
				cv.Type().Field(i).Name, cv.Field(i).Kind())
		}
		cv.Field(i).SetUint(uint64(100 + 7*i))
		pv.Field(i).SetUint(uint64(10 + i))
	}
	d := cur.Since(prev)
	dv := reflect.ValueOf(d)
	for i := 0; i < dv.NumField(); i++ {
		want := uint64(100+7*i) - uint64(10+i)
		if got := dv.Field(i).Uint(); got != want {
			t.Errorf("Since: field %s = %d, want %d",
				dv.Type().Field(i).Name, got, want)
		}
	}
}

func TestTraceSnapshotIndependent(t *testing.T) {
	var tr Trace
	tr.Syscalls = 5
	snap := tr.Snapshot()
	tr.Syscalls = 9
	if snap.Syscalls != 5 {
		t.Fatal("snapshot must not alias the live trace")
	}
	if d := tr.Since(snap); d.Syscalls != 4 {
		t.Fatalf("Since = %d, want 4", d.Syscalls)
	}
}

func TestCostKindString(t *testing.T) {
	if got := CostVMGEXIT.String(); got != "VMGEXIT" {
		t.Errorf("CostVMGEXIT = %q", got)
	}
	// The fallback must include the numeric value, not a fixed "?" label.
	if got := CostKind(99).String(); got != "cost(99)" {
		t.Errorf("CostKind(99).String() = %q, want %q", got, "cost(99)")
	}
	if got := CostKind(-1).String(); got != "cost(-1)" {
		t.Errorf("CostKind(-1).String() = %q, want %q", got, "cost(-1)")
	}
}

func TestCostKindNamesComplete(t *testing.T) {
	names := CostKindNames()
	if len(names) != NumCostKinds {
		t.Fatalf("CostKindNames has %d entries, want %d", len(names), NumCostKinds)
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" {
			t.Errorf("cost kind %d has empty name", i)
		}
		if seen[n] {
			t.Errorf("cost kind name %q duplicated", n)
		}
		seen[n] = true
	}
}

func TestAttributionArithmetic(t *testing.T) {
	var a Attribution
	a[CostVMGEXIT] = 100
	a[CostSyscall] = 40
	var b Attribution
	b[CostVMGEXIT] = 30
	d := a.Sub(b)
	if d[CostVMGEXIT] != 70 || d[CostSyscall] != 40 {
		t.Fatalf("Sub = %v", d)
	}
	if d.Total() != 110 {
		t.Fatalf("Total = %d, want 110", d.Total())
	}
	d.Add(b)
	if d[CostVMGEXIT] != 100 {
		t.Fatalf("Add: got %d, want 100", d[CostVMGEXIT])
	}
	m := d.Map()
	if m["VMGEXIT"] != 100 || m["syscall"] != 40 || len(m) != 2 {
		t.Fatalf("Map = %v", m)
	}
}

func TestClockAttributionSnapshots(t *testing.T) {
	var c Clock
	c.Charge(CostVMGEXIT, 3890)
	c.Charge(CostVMENTER, 3245)
	snap := c.Snapshot()
	c.Charge(CostVMGEXIT, 3890)
	a := Attribution(c.byKind)
	if a[CostVMGEXIT] != 7780 || a.Total() != c.Cycles() {
		t.Fatalf("Attribution = %v, cycles = %d", a, c.Cycles())
	}
	d := c.AttributionSince(snap)
	if d[CostVMGEXIT] != 3890 || d[CostVMENTER] != 0 {
		t.Fatalf("AttributionSince = %v", d)
	}
}

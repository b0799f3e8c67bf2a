package sanitizer

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestExactly96SyscallsSpecified(t *testing.T) {
	// The paper's SDK prototype supports 96 system calls (§7).
	got := 0
	for num, cs := range specs {
		if cs.Name == "" {
			continue
		}
		got++
		if cs.Num != num {
			t.Errorf("%s sits in slot %d, its number is %d", cs.Name, num, cs.Num)
		}
	}
	if got != 96 {
		t.Fatalf("%d syscalls specified, want 96", got)
	}
	for _, num := range []int{-1, 7, len(specs), 999} {
		if _, ok := Spec(num); ok {
			t.Errorf("Spec(%d) found a spec", num)
		}
	}
}

func TestSpecLookup(t *testing.T) {
	cs, ok := Spec(1)
	if !ok || cs.Name != "write" {
		t.Fatalf("Spec(1) = %+v, %v", cs, ok)
	}
	if _, ok := Spec(999); ok {
		t.Fatal("Spec(999) should not exist")
	}
	names := Names()
	if names["read"] != 0 || names["mmap"] != 9 {
		t.Fatal("Names mapping wrong")
	}
}

func TestWriteSpecLengthConstraint(t *testing.T) {
	cs, _ := Spec(1) // write(fd, buf, count)
	buf := make([]byte, 10)
	good := []Arg{{Val: 3}, {Buf: buf}, {Val: 10}}
	if err := cs.Validate(good); err != nil {
		t.Fatal(err)
	}
	// count exceeding the buffer violates the length-constraint
	// relationship between args 1 and 2.
	bad := []Arg{{Val: 3}, {Buf: buf}, {Val: 11}}
	if err := cs.Validate(bad); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("oversized count = %v, want ErrBadArgs", err)
	}
	// Partial counts are fine.
	partial := []Arg{{Val: 3}, {Buf: buf}, {Val: 4}}
	if err := cs.Validate(partial); err != nil {
		t.Fatal(err)
	}
	if cs.CopyInBytes(partial) != 4 {
		t.Fatalf("CopyInBytes = %d, want 4", cs.CopyInBytes(partial))
	}
	if cs.CopyOutBytes(partial) != 0 {
		t.Fatal("write has no output buffers")
	}
}

func TestReadSpecDirections(t *testing.T) {
	cs, _ := Spec(0) // read(fd, buf, count)
	buf := make([]byte, 100)
	args := []Arg{{Val: 3}, {Buf: buf}, {Val: 100}}
	if err := cs.Validate(args); err != nil {
		t.Fatal(err)
	}
	if cs.CopyInBytes(args) != 0 {
		t.Fatal("read copies nothing in")
	}
	if cs.CopyOutBytes(args) != 100 {
		t.Fatalf("CopyOutBytes = %d", cs.CopyOutBytes(args))
	}
	for i, as := range cs.Args {
		if as.CopiesIn() {
			t.Fatalf("read arg %d (%s) copies in", i, as.Name)
		}
		if got, want := as.CopiesOut(), i == 1; got != want {
			t.Fatalf("read arg %d (%s) CopiesOut = %v, want %v", i, as.Name, got, want)
		}
	}
}

func TestPathArgs(t *testing.T) {
	cs, _ := Spec(2) // open
	args := []Arg{{Buf: []byte("/tmp/x")}, {Val: 0}, {Val: 0}}
	if err := cs.Validate(args); err != nil {
		t.Fatal(err)
	}
	// Paths cross with their NUL terminator.
	if cs.CopyInBytes(args) != 7 {
		t.Fatalf("CopyInBytes = %d, want 7", cs.CopyInBytes(args))
	}
	// Empty and oversized paths are rejected.
	if err := cs.Validate([]Arg{{Buf: nil}, {Val: 0}, {Val: 0}}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("empty path accepted")
	}
	if err := cs.Validate([]Arg{{Buf: make([]byte, 5000)}, {Val: 0}, {Val: 0}}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("oversized path accepted")
	}
}

func TestArityChecked(t *testing.T) {
	cs, _ := Spec(3) // close(fd)
	if err := cs.Validate(nil); !errors.Is(err, ErrBadArgs) {
		t.Fatal("missing args accepted")
	}
	if err := cs.Validate([]Arg{{Val: 1}, {Val: 2}}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("extra args accepted")
	}
}

func TestStructPtrValidation(t *testing.T) {
	cs, _ := Spec(5) // fstat(fd, statbuf)
	if err := cs.Validate([]Arg{{Val: 3}, {Buf: make([]byte, 144)}}); err != nil {
		t.Fatal(err)
	}
	// NULL struct pointers are allowed.
	if err := cs.Validate([]Arg{{Val: 3}, {Buf: nil}}); err != nil {
		t.Fatal(err)
	}
	// Wrong-sized structs are not.
	if err := cs.Validate([]Arg{{Val: 3}, {Buf: make([]byte, 10)}}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("short statbuf accepted")
	}
}

func TestIOVecValidation(t *testing.T) {
	cs, _ := Spec(20) // writev(fd, iov, iovcnt)
	vec := [][]byte{[]byte("aa"), []byte("bbbb")}
	good := []Arg{{Val: 1}, {Vec: vec}, {Val: 2}}
	if err := cs.Validate(good); err != nil {
		t.Fatal(err)
	}
	// iovcnt must match the vector count.
	bad := []Arg{{Val: 1}, {Vec: vec}, {Val: 3}}
	if err := cs.Validate(bad); !errors.Is(err, ErrBadArgs) {
		t.Fatal("iovcnt mismatch accepted")
	}
	// 2 + 4 data bytes + 2×16 iovec array entries.
	if got := cs.CopyInBytes(good); got != 6+32 {
		t.Fatalf("CopyInBytes = %d", got)
	}
}

func TestIagoCheck(t *testing.T) {
	mm, _ := Spec(9) // mmap returns a pointer
	const base, length = 0x400000, 0x10000
	if err := mm.CheckRet(base+0x1000, nil, base, length); !errors.Is(err, ErrIago) {
		t.Fatal("pointer into enclave accepted")
	}
	if err := mm.CheckRet(base+length, nil, base, length); err != nil {
		t.Fatalf("pointer just past the enclave rejected: %v", err)
	}
	if err := mm.CheckRet(0x20000000, nil, base, length); err != nil {
		t.Fatalf("outside pointer rejected: %v", err)
	}
	// Scalar returns never trip the pointer check.
	ls, _ := Spec(8) // lseek returns an offset
	if err := ls.CheckRet(base+1, []Arg{{Val: 3}, {Val: 0}, {Val: 0}}, base, length); err != nil {
		t.Fatal("scalar return IAGO-checked")
	}
}

// TestIagoCountBoundary: a byte-count return may equal the requested
// length, never exceed it.
func TestIagoCountBoundary(t *testing.T) {
	rd, _ := Spec(0) // read(fd, buf, count)
	const base, length = 0x400000, 0x10000
	args := []Arg{{Val: 3}, {Buf: make([]byte, 16)}, {Val: 16}}
	for _, ret := range []uint64{0, 15, 16} {
		if err := rd.CheckRet(ret, args, base, length); err != nil {
			t.Fatalf("read returning %d of 16 refused: %v", ret, err)
		}
	}
	for _, ret := range []uint64{17, ^uint64(0)} {
		if err := rd.CheckRet(ret, args, base, length); !errors.Is(err, ErrIago) {
			t.Fatalf("read returning %d of 16 = %v, want ErrIago", ret, err)
		}
	}
	// The bound is the count argument, not the buffer's capacity.
	short := []Arg{{Val: 3}, {Buf: make([]byte, 16)}, {Val: 4}}
	if err := rd.CheckRet(5, short, base, length); !errors.Is(err, ErrIago) {
		t.Fatalf("read returning 5 of 4 = %v, want ErrIago", err)
	}
}

// TestRetCountCalls pins which calls return a byte count of their
// length-constrained buffer: every spec with such a buffer except
// setsockopt, whose return is a status.
func TestRetCountCalls(t *testing.T) {
	want := map[string]bool{
		"read": true, "write": true, "pread64": true, "pwrite64": true,
		"getdents": true, "getcwd": true, "readlink": true,
		"sendto": true, "recvfrom": true, "getrandom": true,
	}
	for name, num := range Names() {
		cs, _ := Spec(num)
		if got := cs.Ret == RetCount; got != want[name] {
			t.Errorf("%s: RetCount = %v, want %v", name, got, want[name])
		}
		if cs.countLenArg() >= 0 && cs.Ret != RetCount && name != "setsockopt" {
			t.Errorf("%s has a length-constrained buffer but no count return", name)
		}
	}
}

func TestEverySpecIsInternallyConsistent(t *testing.T) {
	widest := 0
	for num := 0; num < 1024; num++ {
		cs, ok := Spec(num)
		if !ok {
			continue
		}
		if cs.Num != num || cs.Name == "" {
			t.Fatalf("spec %d malformed: %+v", num, cs)
		}
		widest = max(widest, len(cs.Args))
		for i, as := range cs.Args {
			if as.Kind == Buffer && as.LenArg >= len(cs.Args) {
				t.Fatalf("%s arg %d LenArg out of range", cs.Name, i)
			}
			if as.Kind == Buffer && as.LenArg >= 0 && cs.Args[as.LenArg].Kind != Scalar {
				t.Fatalf("%s arg %d length arg is not scalar", cs.Name, i)
			}
			if as.Kind == StructPtr && as.FixedSize <= 0 {
				t.Fatalf("%s arg %d struct without size", cs.Name, i)
			}
		}
	}
	// MaxArgs sizes the SDK's per-call slot buffer: registration keeps
	// every spec within it, and it is no wider than the widest spec.
	if widest != MaxArgs {
		t.Fatalf("the widest spec takes %d args, MaxArgs is %d", widest, MaxArgs)
	}
}

// Property: for any buffer size and declared count within it, CopyInBytes
// of write equals the declared count, and validation accepts it.
func TestWriteCopyBytesProperty(t *testing.T) {
	cs, _ := Spec(1)
	f := func(size uint16, declared uint16) bool {
		buf := make([]byte, size)
		d := uint64(declared)
		args := []Arg{{Val: 1}, {Buf: buf}, {Val: d}}
		err := cs.Validate(args)
		if d > uint64(size) {
			return errors.Is(err, ErrBadArgs)
		}
		return err == nil && cs.CopyInBytes(args) == int(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKindAndDirStrings(t *testing.T) {
	if Scalar.String() != "scalar" || Buffer.String() != "buffer" || Path.String() != "path" ||
		IOVec.String() != "iovec" || StructPtr.String() != "struct" {
		t.Fatal("kind strings")
	}
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "inout" {
		t.Fatal("dir strings")
	}
}

// Names returns name→num for every specified call.
func Names() map[string]int {
	out := make(map[string]int, len(specs))
	for n, cs := range specs {
		if cs.Name != "" {
			out[cs.Name] = n
		}
	}
	return out
}

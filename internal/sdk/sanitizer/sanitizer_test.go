package sanitizer

import (
	"errors"
	"testing"
	"testing/quick"

	"veil/internal/kernel"
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
	if err := validate(t, cs, good); err != nil {
		t.Fatal(err)
	}
	// count exceeding the buffer violates the length-constraint
	// relationship between args 1 and 2.
	bad := []Arg{{Val: 3}, {Buf: buf}, {Val: 11}}
	if err := validate(t, cs, bad); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("oversized count = %v, want ErrBadArgs", err)
	}
	// Partial counts are fine.
	partial := []Arg{{Val: 3}, {Buf: buf}, {Val: 4}}
	if err := validate(t, cs, partial); err != nil {
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
	if err := validate(t, cs, args); err != nil {
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
	if err := validate(t, cs, args); err != nil {
		t.Fatal(err)
	}
	// Paths cross with their NUL terminator.
	if cs.CopyInBytes(args) != 7 {
		t.Fatalf("CopyInBytes = %d, want 7", cs.CopyInBytes(args))
	}
	// Empty and oversized paths are rejected.
	if err := validate(t, cs, []Arg{{Buf: nil}, {Val: 0}, {Val: 0}}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("empty path accepted")
	}
	if err := validate(t, cs, []Arg{{Buf: make([]byte, 5000)}, {Val: 0}, {Val: 0}}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("oversized path accepted")
	}
}

func TestArityChecked(t *testing.T) {
	cs, _ := Spec(3) // close(fd)
	if err := validate(t, cs, nil); !errors.Is(err, ErrBadArgs) {
		t.Fatal("missing args accepted")
	}
	if err := validate(t, cs, []Arg{{Val: 1}, {Val: 2}}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("extra args accepted")
	}
}

func TestStructPtrValidation(t *testing.T) {
	cs, _ := Spec(5) // fstat(fd, statbuf)
	if err := validate(t, cs, []Arg{{Val: 3}, {Buf: make([]byte, 144)}}); err != nil {
		t.Fatal(err)
	}
	// NULL struct pointers are allowed.
	if err := validate(t, cs, []Arg{{Val: 3}, {Buf: nil}}); err != nil {
		t.Fatal(err)
	}
	// Wrong-sized structs are not.
	if err := validate(t, cs, []Arg{{Val: 3}, {Buf: make([]byte, 10)}}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("short statbuf accepted")
	}
}

func TestIOVecValidation(t *testing.T) {
	cs, _ := Spec(20) // writev(fd, iov, iovcnt)
	vec := [][]byte{[]byte("aa"), []byte("bbbb")}
	good := []Arg{{Val: 1}, {Vec: vec}, {Val: 2}}
	if err := validate(t, cs, good); err != nil {
		t.Fatal(err)
	}
	// iovcnt must match the vector count.
	bad := []Arg{{Val: 1}, {Vec: vec}, {Val: 3}}
	if err := validate(t, cs, bad); !errors.Is(err, ErrBadArgs) {
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
	if err := checkRet(t, mm, base+0x1000, nil, base, length); !errors.Is(err, ErrIago) {
		t.Fatal("pointer into enclave accepted")
	}
	if err := checkRet(t, mm, base+length, nil, base, length); err != nil {
		t.Fatalf("pointer just past the enclave rejected: %v", err)
	}
	if err := checkRet(t, mm, 0x20000000, nil, base, length); err != nil {
		t.Fatalf("outside pointer rejected: %v", err)
	}
	// Scalar returns never trip the pointer check.
	ls, _ := Spec(8) // lseek returns an offset
	if err := checkRet(t, ls, base+1, []Arg{{Val: 3}, {Val: 0}, {Val: 0}}, base, length); err != nil {
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
		if err := checkRet(t, rd, ret, args, base, length); err != nil {
			t.Fatalf("read returning %d of 16 refused: %v", ret, err)
		}
	}
	for _, ret := range []uint64{17, ^uint64(0)} {
		if err := checkRet(t, rd, ret, args, base, length); !errors.Is(err, ErrIago) {
			t.Fatalf("read returning %d of 16 = %v, want ErrIago", ret, err)
		}
	}
	// The bound is the count argument, not the buffer's capacity.
	short := []Arg{{Val: 3}, {Buf: make([]byte, 16)}, {Val: 4}}
	if err := checkRet(t, rd, 5, short, base, length); !errors.Is(err, ErrIago) {
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
		err := validate(t, cs, args)
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

// validate runs args through cs's compiled plan and through the reference
// walk, and fails the test unless both give the same refusal (errors.Is
// and text) and, for accepted args, the same transfer size. It returns the
// plan's verdict.
func validate(t testing.TB, cs CallSpec, args []Arg) error {
	t.Helper()
	n, err := PlanFor(cs.Num).Size(args)
	refErr := cs.Validate(args)
	sameVerdict(t, cs.Name+" validate", err, refErr)
	if err != nil {
		return err
	}
	if want := cs.CopyInBytes(args) + cs.CopyOutBytes(args); n != want {
		t.Fatalf("%s: plan sizes %d bytes, the reference %d", cs.Name, n, want)
	}
	return nil
}

// checkRet applies cs's compiled Iago check and the reference one, and
// fails the test unless they agree. It returns the plan's verdict.
func checkRet(t testing.TB, cs CallSpec, ret uint64, args []Arg, base, length uint64) error {
	t.Helper()
	err := PlanFor(cs.Num).CheckRet(ret, args, base, length)
	sameVerdict(t, cs.Name+" return check", err, cs.CheckRet(ret, args, base, length))
	return err
}

// sameVerdict fails the test unless got and want are both nil, or wrap
// the same sanitizer error with the same text.
func sameVerdict(t testing.TB, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && (got.Error() != want.Error() ||
		errors.Is(got, ErrBadArgs) != errors.Is(want, ErrBadArgs) || errors.Is(got, ErrIago) != errors.Is(want, ErrIago)) {
		t.Fatalf("%s: plan says %v, the reference %v", what, got, want)
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

// TestIagoDescriptorAndOffsetReturns: a call returning a new descriptor
// must return one in [0, kernel.MaxFD), and lseek a non-negative offset;
// everything else is an Iago value.
func TestIagoDescriptorAndOffsetReturns(t *testing.T) {
	const base, length = 0x400000, 0x10000
	open, _ := Spec(2)
	args := []Arg{{Buf: []byte("/tmp/x")}, {Val: 0}, {Val: 0}}
	for _, ret := range []uint64{0, 3, kernel.MaxFD - 1} {
		if err := checkRet(t, open, ret, args, base, length); err != nil {
			t.Fatalf("open returning fd %d refused: %v", ret, err)
		}
	}
	for _, ret := range []uint64{^uint64(0), 1 << 63, kernel.MaxFD, 1 << 40} {
		if err := checkRet(t, open, ret, args, base, length); !errors.Is(err, ErrIago) {
			t.Fatalf("open returning fd %d = %v, want ErrIago", int64(ret), err)
		}
	}
	lseek, _ := Spec(8)
	args = []Arg{{Val: 3}, {Val: 0}, {Val: 0}}
	for _, ret := range []uint64{0, 1 << 40, 1<<63 - 1} {
		if err := checkRet(t, lseek, ret, args, base, length); err != nil {
			t.Fatalf("lseek returning %d refused: %v", ret, err)
		}
	}
	for _, ret := range []uint64{^uint64(0), 1 << 63} {
		if err := checkRet(t, lseek, ret, args, base, length); !errors.Is(err, ErrIago) {
			t.Fatalf("lseek returning %d = %v, want ErrIago", int64(ret), err)
		}
	}
}

// TestRetFDAndOffsetCalls pins which calls return a new descriptor and
// which an offset.
func TestRetFDAndOffsetCalls(t *testing.T) {
	want := map[string]Ret{
		"open": RetFD, "openat": RetFD, "creat": RetFD, "dup": RetFD, "dup2": RetFD,
		"dup3": RetFD, "socket": RetFD, "accept": RetFD, "accept4": RetFD,
		"lseek": RetOffset,
	}
	for name, num := range Names() {
		cs, _ := Spec(num)
		if r, ok := want[name]; ok != (cs.Ret == RetFD || cs.Ret == RetOffset) || ok && cs.Ret != r {
			t.Errorf("%s: Ret = %d, want %d", name, cs.Ret, want[name])
		}
	}
}

// FuzzOcallPlan holds every compiled plan to the reference walk: the
// fuzzed bytes pick a spec and build arbitrary arguments for it (any
// count, each a scalar, a buffer, a NULL or empty buffer, or an iovec,
// with values near the buffer lengths so length constraints fall both
// ways), and the plan and the reference must refuse them alike (errors.Is
// and text) or size them alike, and then give the same verdict on the
// fuzzed return.
func FuzzOcallPlan(f *testing.F) {
	var nums []int
	for num := range specs {
		if PlanFor(num) != nil {
			nums = append(nums, num)
		}
	}
	f.Add(uint16(0), []byte{3, 0, 7, 1, 16, 0, 16}, uint64(16))
	f.Add(uint16(1), []byte{3, 0, 1, 1, 8, 0, 9}, uint64(0))
	f.Add(uint16(2), []byte{3, 1, 6, 0, 0, 0, 0}, ^uint64(0))
	f.Add(uint16(7), []byte{3, 0, 3, 0, 0, 0, 0}, uint64(1)<<63)
	f.Add(uint16(17), []byte{3, 0, 1, 3, 2, 0, 2}, uint64(5))
	f.Add(uint16(40), []byte{6, 0, 3, 1, 16, 0, 16, 0, 0, 2, 16, 2, 4}, uint64(17))
	f.Fuzz(func(t *testing.T, pick uint16, shape []byte, ret uint64) {
		cs := specs[nums[int(pick)%len(nums)]]
		next := func() int {
			if len(shape) == 0 {
				return 0
			}
			v := int(shape[0])
			shape = shape[1:]
			return v
		}
		args := make([]Arg, next()%(MaxArgs+2))
		for i := range args {
			switch form, n := next()%5, next()%40; form {
			case 0:
				args[i].Val = uint64(n)
			case 1:
				args[i].Buf = make([]byte, n)
			case 2:
				args[i].Buf = make([]byte, 0, 1) // empty, not NULL
			case 3:
				args[i].Vec = make([][]byte, n%4)
				for j := range args[i].Vec {
					args[i].Vec[j] = make([]byte, next()%24)
				}
			}
		}
		if validate(t, cs, args) != nil {
			return
		}
		const base, length = 0x400000, 0x10000
		checkRet(t, cs, ret, args, base, length)
		checkRet(t, cs, base+ret%length, args, base, length)
	})
}

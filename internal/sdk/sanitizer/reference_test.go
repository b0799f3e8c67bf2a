package sanitizer

import (
	"fmt"

	"veil/internal/kernel"
)

// The reference marshaller: one walk of the CallSpec declaration per
// question (validate, bytes in, bytes out, return check). FuzzOcallPlan
// and the cases in sanitizer_test.go hold every Plan to it: the same
// refusal (errors.Is and text), the same transfer size and the same
// return verdict.

// Spec returns the call specification for a syscall number.
func Spec(num int) (CallSpec, bool) {
	if num < 0 || num >= len(specs) || specs[num].Name == "" {
		return CallSpec{}, false
	}
	return specs[num], true
}

// countLenArg is the index of the argument bounding the first
// length-constrained Buffer, the one a RetCount return counts bytes of;
// -1 if the call has none.
func (cs CallSpec) countLenArg() int {
	for _, as := range cs.Args {
		if as.Kind == Buffer && as.LenArg >= 0 {
			return as.LenArg
		}
	}
	return -1
}

// Validate checks concrete arguments against the specification: arity,
// argument shapes, and the length-constraint relationships of the type
// specification (e.g. write's third argument bounds its second).
func (cs CallSpec) Validate(args []Arg) error {
	if len(args) != len(cs.Args) {
		return fmt.Errorf("%w: %s takes %d args, got %d", ErrBadArgs, cs.Name, len(cs.Args), len(args))
	}
	for i, as := range cs.Args {
		a := args[i]
		switch as.Kind {
		case Scalar:
			if a.Buf != nil || a.Vec != nil {
				return fmt.Errorf("%w: %s arg %s is scalar", ErrBadArgs, cs.Name, as.Name)
			}
		case Buffer:
			if a.Vec != nil {
				return fmt.Errorf("%w: %s arg %s is a buffer", ErrBadArgs, cs.Name, as.Name)
			}
			if as.LenArg >= 0 {
				if as.LenArg >= len(args) {
					return fmt.Errorf("%w: %s arg %s length index out of range", ErrBadArgs, cs.Name, as.Name)
				}
				if args[as.LenArg].Val > uint64(len(a.Buf)) {
					return fmt.Errorf("%w: %s arg %s: declared length %d exceeds buffer %d",
						ErrBadArgs, cs.Name, as.Name, args[as.LenArg].Val, len(a.Buf))
				}
			}
		case Path:
			if a.Buf == nil || len(a.Buf) == 0 || len(a.Buf) > 4096 {
				return fmt.Errorf("%w: %s arg %s: bad path", ErrBadArgs, cs.Name, as.Name)
			}
		case StructPtr:
			// A nil Buf models a NULL pointer (allowed: optional structs).
			if a.Buf != nil && len(a.Buf) != as.FixedSize {
				return fmt.Errorf("%w: %s arg %s: struct size %d, want %d",
					ErrBadArgs, cs.Name, as.Name, len(a.Buf), as.FixedSize)
			}
		case IOVec:
			if a.Vec == nil {
				return fmt.Errorf("%w: %s arg %s: missing iovec", ErrBadArgs, cs.Name, as.Name)
			}
			if i+1 < len(cs.Args) && cs.Args[i+1].Kind == Scalar &&
				args[i+1].Val != uint64(len(a.Vec)) {
				return fmt.Errorf("%w: %s arg %s: iovcnt %d != %d vectors",
					ErrBadArgs, cs.Name, as.Name, args[i+1].Val, len(a.Vec))
			}
		}
	}
	return nil
}

// effectiveLen is the number of bytes a buffer argument actually transfers.
func (cs CallSpec) effectiveLen(i int, args []Arg) int {
	as := cs.Args[i]
	a := args[i]
	switch as.Kind {
	case Buffer:
		if as.LenArg >= 0 {
			return int(args[as.LenArg].Val)
		}
		return len(a.Buf)
	case Path:
		return len(a.Buf) + 1 // NUL terminator crosses too
	case StructPtr:
		if a.Buf == nil {
			return 0
		}
		return as.FixedSize
	case IOVec:
		total := 16 * len(a.Vec) // the iovec array itself
		for _, v := range a.Vec {
			total += len(v)
		}
		return total
	}
	return 0
}

// CopiesIn reports whether the argument is deep-copied out of the
// enclave into shared memory before the call.
func (as ArgSpec) CopiesIn() bool {
	return as.Kind == Path ||
		((as.Kind == Buffer || as.Kind == StructPtr || as.Kind == IOVec) &&
			(as.Dir == In || as.Dir == InOut))
}

// CopiesOut reports whether the argument is copied back into the enclave
// after the call.
func (as ArgSpec) CopiesOut() bool {
	return (as.Kind == Buffer || as.Kind == StructPtr || as.Kind == IOVec) &&
		(as.Dir == Out || as.Dir == InOut)
}

// CopyInBytes is the number of bytes that must be deep-copied out of the
// enclave into shared memory before the call.
func (cs CallSpec) CopyInBytes(args []Arg) int {
	total := 0
	for i, as := range cs.Args {
		if as.CopiesIn() {
			total += cs.effectiveLen(i, args)
		}
	}
	return total
}

// CopyOutBytes is the capacity of output buffers that may be copied back
// into the enclave after the call.
func (cs CallSpec) CopyOutBytes(args []Arg) int {
	total := 0
	for i, as := range cs.Args {
		if as.CopiesOut() {
			total += cs.effectiveLen(i, args)
		}
	}
	return total
}

// CheckRet applies the IAGO return check for the call's successful
// return: pointer-returning syscalls must never point into enclave memory,
// or a dereference would let the OS trick the enclave into reading or
// clobbering its own secrets ([37] in the paper); byte-count returns must
// not exceed the length the enclave passed, or the program would take
// bytes past its buffer as data (the read-count attack). An iovec call
// (readv, writev, sendmsg, recvmsg) returns the bytes it moved through
// its vectors, which must not exceed their total length. A descriptor
// return must lie in [0, kernel.MaxFD), an offset must not be negative.
func (cs CallSpec) CheckRet(ret uint64, args []Arg, enclaveBase, enclaveLen uint64) error {
	for i, as := range cs.Args {
		if as.Kind != IOVec || i >= len(args) {
			continue
		}
		total := uint64(0)
		for _, v := range args[i].Vec {
			total += uint64(len(v))
		}
		if ret > total {
			return fmt.Errorf("%w: %s returned %d bytes for %d bytes of vectors",
				ErrIago, cs.Name, ret, total)
		}
	}
	switch cs.Ret {
	case RetPointer:
		if ret >= enclaveBase && ret < enclaveBase+enclaveLen {
			return fmt.Errorf("%w: %s returned pointer %#x inside the enclave [%#x,%#x)",
				ErrIago, cs.Name, ret, enclaveBase, enclaveBase+enclaveLen)
		}
	case RetCount:
		i := cs.countLenArg()
		if i >= len(args) {
			return fmt.Errorf("%w: %s length index out of range", ErrBadArgs, cs.Name)
		}
		if max := args[i].Val; ret > max {
			return fmt.Errorf("%w: %s returned %d bytes for a %d-byte request",
				ErrIago, cs.Name, ret, max)
		}
	case RetFD:
		if fd := int64(ret); fd < 0 || fd >= kernel.MaxFD {
			return fmt.Errorf("%w: %s returned descriptor %d outside [0,%d)", ErrIago, cs.Name, fd, kernel.MaxFD)
		}
	case RetOffset:
		if off := int64(ret); off < 0 {
			return fmt.Errorf("%w: %s returned offset %d", ErrIago, cs.Name, off)
		}
	}
	return nil
}

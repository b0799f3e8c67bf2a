package sanitizer

import (
	"fmt"

	"veil/internal/kernel"
)

// Arg is one concrete argument for a specified call. Scalars carry Val;
// buffer-like arguments carry Buf (the enclave-side backing store); IOVec
// arguments carry Vec.
type Arg struct {
	Val uint64
	Buf []byte
	Vec [][]byte
}

// maxPath is the longest path, without its NUL, a call may pass.
const maxPath = 4096

// Plan is one CallSpec compiled, at registration, into the small
// fixed-width form the SDK runs once per redirected call: Size validates
// and sizes the arguments, Args drives staging and copy-back, and CheckRet
// applies the Iago return check. The CallSpec stays the one declaration;
// a plan carries no names, and a refusal takes them from the spec table.
type Plan struct {
	num   uint16
	count int8 // RetCount: the argument bounding the returned byte count
	iovec int8 // the IOVec argument, whose total bounds the return; -1 if none
	NArgs uint8
	Ret   Ret
	Args  [MaxArgs]ArgPlan
}

// ArgPlan is one argument of a Plan.
type ArgPlan struct {
	Kind Kind
	// In arguments are deep-copied into shared memory before the call, Out
	// arguments copied back into the enclave after it.
	In, Out bool
	// LenArg is the argument carrying a Buffer's length or an IOVec's
	// vector count; -1 if there is none.
	LenArg int8
	// Size is a StructPtr's byte size.
	Size uint16
}

// plans is indexed by syscall number like specs; nil where no call is
// specified.
var plans []*Plan

// PlanFor returns the compiled plan for a syscall number, or nil if the
// SDK does not support it.
func PlanFor(num int) *Plan {
	if num < 0 || num >= len(plans) {
		return nil
	}
	return plans[num]
}

// compile builds the plan of a registered spec, refusing (at init) a spec
// the plan cannot express: a length index out of range, a count return
// with no length-constrained buffer, or two iovecs.
func compile(cs *CallSpec) *Plan {
	p := &Plan{num: uint16(cs.Num), count: -1, iovec: -1, NArgs: uint8(len(cs.Args)), Ret: cs.Ret}
	for i, as := range cs.Args {
		ap := ArgPlan{Kind: as.Kind, LenArg: -1, Size: uint16(as.FixedSize)}
		switch as.Kind {
		case Path:
			ap.In = true
		case Buffer, StructPtr, IOVec:
			ap.In = as.Dir == In || as.Dir == InOut
			ap.Out = as.Dir == Out || as.Dir == InOut
		}
		switch as.Kind {
		case Buffer:
			if as.LenArg >= len(cs.Args) {
				panic(fmt.Sprintf("sanitizer: %s arg %s length index out of range", cs.Name, as.Name))
			}
			ap.LenArg = int8(as.LenArg)
			if as.LenArg >= 0 && p.count < 0 {
				p.count = int8(as.LenArg)
			}
		case IOVec:
			if p.iovec >= 0 {
				panic(fmt.Sprintf("sanitizer: %s takes two iovecs", cs.Name))
			}
			p.iovec = int8(i)
			if i+1 < len(cs.Args) && cs.Args[i+1].Kind == Scalar {
				ap.LenArg = int8(i + 1)
			}
		}
		p.Args[i] = ap
	}
	if cs.Ret == RetCount && p.count < 0 {
		panic(fmt.Sprintf("sanitizer: %s returns a count but has no length-constrained buffer", cs.Name))
	}
	return p
}

// Name is the syscall's name.
func (p *Plan) Name() string { return specs[p.num].Name }

// Size validates concrete arguments against the plan — arity, argument
// shapes, and the length-constraint relationships of the type
// specification (write's third argument bounds its second) — and returns
// the bytes the call moves across the boundary: every In argument copied
// out of the enclave plus every Out argument's capacity copied back. A
// buffer moves its length argument's bytes, a path its bytes and NUL, a
// struct its size (none for NULL), an iovec its vectors and 16 bytes per
// entry. A refusal wraps ErrBadArgs and is built out of line.
func (p *Plan) Size(args []Arg) (int, error) {
	if len(args) != int(p.NArgs) {
		return 0, p.refuse(args, -1, badArity)
	}
	total := 0
	for i := range args {
		ap, a := &p.Args[i], &args[i]
		n := 0
		switch ap.Kind {
		case Scalar:
			if a.Buf != nil || a.Vec != nil {
				return 0, p.refuse(args, i, badScalar)
			}
		case Buffer:
			if a.Vec != nil {
				return 0, p.refuse(args, i, badBuffer)
			}
			n = len(a.Buf)
			if ap.LenArg >= 0 {
				l := args[ap.LenArg].Val
				if l > uint64(n) {
					return 0, p.refuse(args, i, badLength)
				}
				n = int(l)
			}
		case Path:
			if n = len(a.Buf); n == 0 || n > maxPath {
				return 0, p.refuse(args, i, badPath)
			}
			n++ // the NUL terminator crosses too
		case StructPtr:
			// A nil Buf models a NULL pointer (allowed: optional structs).
			if a.Buf != nil {
				if len(a.Buf) != int(ap.Size) {
					return 0, p.refuse(args, i, badStruct)
				}
				n = int(ap.Size)
			}
		case IOVec:
			if a.Vec == nil {
				return 0, p.refuse(args, i, noIOVec)
			}
			if ap.LenArg >= 0 && args[ap.LenArg].Val != uint64(len(a.Vec)) {
				return 0, p.refuse(args, i, badIOVCnt)
			}
			n = 16 * len(a.Vec) // the iovec array itself
			for _, v := range a.Vec {
				n += len(v)
			}
		}
		if ap.In {
			total += n
		}
		if ap.Out {
			total += n
		}
	}
	return total, nil
}

// refusal names the check an argument failed.
type refusal uint8

const (
	badArity refusal = iota
	badScalar
	badBuffer
	badLength
	badPath
	badStruct
	noIOVec
	badIOVCnt
)

// refuse builds Size's refusal of argument i (the arity when i < 0).
func (p *Plan) refuse(args []Arg, i int, why refusal) error {
	cs := &specs[p.num]
	if why == badArity {
		return fmt.Errorf("%w: %s takes %d args, got %d", ErrBadArgs, cs.Name, len(cs.Args), len(args))
	}
	as, a := &cs.Args[i], &args[i]
	switch why {
	case badScalar:
		return fmt.Errorf("%w: %s arg %s is scalar", ErrBadArgs, cs.Name, as.Name)
	case badBuffer:
		return fmt.Errorf("%w: %s arg %s is a buffer", ErrBadArgs, cs.Name, as.Name)
	case badLength:
		return fmt.Errorf("%w: %s arg %s: declared length %d exceeds buffer %d",
			ErrBadArgs, cs.Name, as.Name, args[as.LenArg].Val, len(a.Buf))
	case badPath:
		return fmt.Errorf("%w: %s arg %s: bad path", ErrBadArgs, cs.Name, as.Name)
	case badStruct:
		return fmt.Errorf("%w: %s arg %s: struct size %d, want %d",
			ErrBadArgs, cs.Name, as.Name, len(a.Buf), as.FixedSize)
	case noIOVec:
		return fmt.Errorf("%w: %s arg %s: missing iovec", ErrBadArgs, cs.Name, as.Name)
	}
	return fmt.Errorf("%w: %s arg %s: iovcnt %d != %d vectors",
		ErrBadArgs, cs.Name, as.Name, args[i+1].Val, len(a.Vec))
}

// CheckRet applies the IAGO return check to the call's successful return,
// for arguments Size accepted: pointer-returning syscalls must never point
// into enclave memory, or a dereference would let the OS trick the enclave
// into reading or clobbering its own secrets ([37] in the paper);
// byte-count returns must not exceed the length the enclave passed, or the
// program would take bytes past its buffer as data (the read-count
// attack); an iovec call (readv, writev, sendmsg, recvmsg) must not return
// more bytes than its vectors hold; a new descriptor must lie in
// [0, kernel.MaxFD); and a file offset must not be negative. A refusal
// wraps ErrIago and is built out of line.
func (p *Plan) CheckRet(ret uint64, args []Arg, enclaveBase, enclaveLen uint64) error {
	if p.iovec >= 0 && ret > vecBytes(args[p.iovec].Vec) {
		return p.iago(ret, args, enclaveBase, enclaveLen)
	}
	switch p.Ret {
	case RetPointer:
		if ret >= enclaveBase && ret < enclaveBase+enclaveLen {
			return p.iago(ret, args, enclaveBase, enclaveLen)
		}
	case RetCount:
		if ret > args[p.count].Val {
			return p.iago(ret, args, enclaveBase, enclaveLen)
		}
	case RetFD:
		// A negative descriptor is past MaxFD as a uint64.
		if ret >= kernel.MaxFD {
			return p.iago(ret, args, enclaveBase, enclaveLen)
		}
	case RetOffset:
		if int64(ret) < 0 {
			return p.iago(ret, args, enclaveBase, enclaveLen)
		}
	}
	return nil
}

// vecBytes is the total length of an iovec's vectors.
func vecBytes(vec [][]byte) uint64 {
	total := uint64(0)
	for _, v := range vec {
		total += uint64(len(v))
	}
	return total
}

// iago builds CheckRet's refusal of ret.
func (p *Plan) iago(ret uint64, args []Arg, enclaveBase, enclaveLen uint64) error {
	name := specs[p.num].Name
	if p.iovec >= 0 {
		if total := vecBytes(args[p.iovec].Vec); ret > total {
			return fmt.Errorf("%w: %s returned %d bytes for %d bytes of vectors", ErrIago, name, ret, total)
		}
	}
	switch p.Ret {
	case RetPointer:
		return fmt.Errorf("%w: %s returned pointer %#x inside the enclave [%#x,%#x)",
			ErrIago, name, ret, enclaveBase, enclaveBase+enclaveLen)
	case RetCount:
		return fmt.Errorf("%w: %s returned %d bytes for a %d-byte request", ErrIago, name, ret, args[p.count].Val)
	case RetFD:
		return fmt.Errorf("%w: %s returned descriptor %d outside [0,%d)", ErrIago, name, int64(ret), kernel.MaxFD)
	}
	return fmt.Errorf("%w: %s returned offset %d", ErrIago, name, int64(ret))
}

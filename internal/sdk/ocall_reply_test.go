package sdk

import (
	"bytes"
	"errors"
	"testing"

	"veil/internal/kernel"
	"veil/internal/obs"
	"veil/internal/sdk/sanitizer"
	"veil/internal/snp"
)

// replyCall is one call the sanitizer table specifies: its number, name
// and compiled plan.
type replyCall struct {
	Num  int
	Name string
	Plan *sanitizer.Plan
}

// replySpecs lists every call the sanitizer table specifies, in number
// order.
func replySpecs() []replyCall {
	var calls []replyCall
	for num := 0; num < 512; num++ {
		if p := sanitizer.PlanFor(num); p != nil {
			calls = append(calls, replyCall{Num: num, Name: p.Name(), Plan: p})
		}
	}
	return calls
}

// replyGuard is the number of guard bytes past each buffer a fuzzed call
// hands the enclave runtime.
const replyGuard = 16

// replyArgs builds in-range arguments for cs: a 16-byte buffer for every
// length-constrained buffer (its length argument says 16), a buffer of the
// fixed size for every struct, a path, and a two-vector iovec. Each buffer
// is the front of a backing slice whose capacity runs on into replyGuard
// guard bytes, returned in backs.
func replyArgs(cs replyCall) (args []sanitizer.Arg, backs [][]byte) {
	buf := func(n int) []byte {
		back := bytes.Repeat([]byte{0xA5}, n+replyGuard)
		backs = append(backs, back)
		return back[:n]
	}
	args = make([]sanitizer.Arg, cs.Plan.NArgs)
	for i, ap := range cs.Plan.Args[:cs.Plan.NArgs] {
		switch ap.Kind {
		case sanitizer.Buffer:
			n := 16
			if ap.LenArg >= 0 {
				args[ap.LenArg].Val = uint64(n)
			}
			args[i].Buf = buf(n)
		case sanitizer.StructPtr:
			args[i].Buf = buf(int(ap.Size))
		case sanitizer.Path:
			args[i].Buf = []byte("/tmp/fuzz-reply")
		case sanitizer.IOVec:
			args[i].Vec = [][]byte{buf(8), buf(8)}
			if i+1 < len(args) {
				args[i+1].Val = 2
			}
		}
	}
	return args, backs
}

// FuzzOcallReply drives the enclave side of a redirected call with an
// arbitrary reply: a hostile OCALL server answers with the fuzzed ret and
// errno and writes the fuzzed bytes over the staging area, for the spec
// the first input picks from the sanitizer table. e.call is driven
// directly, so specs dispatch answers with ENOSYS are reached too.
// Whatever the reply says, the enclave must not panic or write past the
// caller's buffers; a refusal must be typed (ErrIago, ErrUnsupported or
// the errno's errFor error); a success must pass the Iago return check;
// and the enclave dies exactly when a DeniedIago event names the call. A
// descriptor a call accepts lies in [0, kernel.MaxFD), an lseek offset is
// not negative, and an errno-0 return outside those ranges kills the
// enclave.
func FuzzOcallReply(f *testing.F) {
	specs := replySpecs()
	for i := range specs {
		f.Add(uint16(i), uint64(0), uint64(0), []byte("staged out-bytes"))
		f.Add(uint16(i), uint64(1<<20), uint64(0), []byte(nil))
	}
	f.Add(uint16(0), ^uint64(0), uint64(38), []byte(nil))
	f.Add(uint16(1), ^uint64(0), uint64(2), []byte(nil))
	f.Add(uint16(2), ^uint64(0), uint64(1<<40), []byte(nil))
	f.Add(uint16(2), ^uint64(0), uint64(0), []byte(nil))           // open: fd -1
	f.Add(uint16(2), uint64(kernel.MaxFD), uint64(0), []byte(nil)) // open: fd MaxFD
	f.Add(uint16(7), uint64(1)<<63, uint64(0), []byte(nil))        // lseek: a negative offset
	f.Fuzz(func(t *testing.T, pick uint16, ret, errno uint64, out []byte) {
		cs := specs[int(pick)%len(specs)]
		args, backs := replyArgs(cs)
		c := bootVeil(t)
		defer c.M.Release()
		var er *EnclaveRuntime
		var callErr error
		var got uint64
		var hostile func(vcpu int) error
		prog := ProgramFunc(func(lc Libc, _ []string) int {
			er = lc.(*EnclaveRuntime)
			c.SwapOcallServer(0, hostile)
			got, callErr = er.call(cs.Num, args)
			return 0
		})
		a, p := launch(t, c, prog)
		mem, err := p.Mem()
		if err != nil {
			t.Fatal(err)
		}
		hostile = func(vcpu int) error {
			if len(out) > stageLimit {
				out = out[:stageLimit]
			}
			if err := mem.Write(a.sharedVirt+stageOff, out); err != nil {
				return err
			}
			if err := mem.WriteU64(a.sharedVirt+dRet, ret); err != nil {
				return err
			}
			return mem.WriteU64(a.sharedVirt+dErrno, errno)
		}
		if _, err := a.Enter(); err != nil && !errors.Is(err, ErrEnclaveDead) {
			t.Fatalf("%s: enter: %v", cs.Name, err)
		}
		for i, back := range backs {
			n := len(back) - replyGuard
			if g := back[n:]; !bytes.Equal(g, bytes.Repeat([]byte{0xA5}, replyGuard)) {
				t.Fatalf("%s: buffer %d (%d bytes) written past its end: guard % x", cs.Name, i, n, g)
			}
		}
		switch {
		case callErr == nil:
			if errno != 0 {
				t.Fatalf("%s: errno %d accepted as success", cs.Name, errno)
			}
			if got != ret {
				t.Fatalf("%s: returned %#x, the host said %#x", cs.Name, got, ret)
			}
			if err := cs.Plan.CheckRet(ret, args, er.View().Base, er.View().Length); err != nil {
				t.Fatalf("%s: accepted a return the Iago check refuses: %v", cs.Name, err)
			}
			switch cs.Plan.Ret {
			case sanitizer.RetFD:
				if fd := int64(got); fd < 0 || fd >= kernel.MaxFD {
					t.Fatalf("%s: accepted descriptor %d", cs.Name, fd)
				}
			case sanitizer.RetOffset:
				if int64(got) < 0 {
					t.Fatalf("%s: accepted offset %d", cs.Name, int64(got))
				}
			}
		case errors.Is(callErr, sanitizer.ErrIago):
			if !er.Dead() {
				t.Fatalf("%s: Iago refusal %v left the enclave alive", cs.Name, callErr)
			}
			switch cs.Plan.Ret {
			case sanitizer.RetFD:
				if fd := int64(ret); errno != 0 || (fd >= 0 && fd < kernel.MaxFD) {
					t.Fatalf("%s: refused descriptor %d (errno %d): %v", cs.Name, fd, errno, callErr)
				}
			case sanitizer.RetOffset:
				if errno != 0 || int64(ret) >= 0 {
					t.Fatalf("%s: refused offset %d (errno %d): %v", cs.Name, int64(ret), errno, callErr)
				}
			}
		case errors.Is(callErr, sanitizer.ErrUnsupported):
		case errno != 0 && errors.Is(callErr, errFor(errno)):
		default:
			t.Fatalf("%s: untyped refusal %v (ret %#x errno %d)", cs.Name, callErr, ret, errno)
		}
		var kills []uint64
		for _, e := range c.M.FlightTail() {
			if e.Class == obs.ClassDenied && e.Arg1 == uint64(snp.DeniedIago) {
				kills = append(kills, e.Arg2)
			}
		}
		switch {
		case er.Dead() && (len(kills) != 1 || kills[0] != uint64(cs.Num)):
			t.Fatalf("%s: the enclave died; DeniedIago events name %v, want one naming %d", cs.Name, kills, cs.Num)
		case !er.Dead() && len(kills) != 0:
			t.Fatalf("%s: DeniedIago events %v, but the enclave lives", cs.Name, kills)
		}
		if h := c.M.Halted(); h != nil {
			t.Fatalf("%s: machine halted: %v", cs.Name, h)
		}
	})
}

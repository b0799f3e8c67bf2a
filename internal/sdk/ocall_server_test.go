package sdk

import (
	"encoding/binary"
	"errors"
	"testing"
)

// rawDescriptor encodes a request frame as the enclave side lays it out:
// the {sysno, nargs} header at dSysno and the slots at dArgs.
func rawDescriptor(sysno, nargs uint64, args ...ocallArg) []byte {
	le := binary.LittleEndian
	d := make([]byte, dArgs+24*len(args))
	le.PutUint64(d[dSysno:], sysno)
	le.PutUint64(d[dNArgs:], nargs)
	for i, a := range args {
		w := d[dArgs+24*i:]
		le.PutUint64(w[0:], a.val)
		le.PutUint64(w[8:], a.stage)
		le.PutUint64(w[16:], a.length)
	}
	return d
}

// serveRaw writes desc over the descriptor (its reply words cleared) and
// stage at the start of the staging area, then runs the OCALL server on
// them directly, as a hostile enclave's exit would.
func serveRaw(t *testing.T, a *AppRuntime, desc, stage []byte) (ret, errno uint64, err error) {
	t.Helper()
	if len(desc) > dArgs+maxOcallArgs*24 {
		desc = desc[:dArgs+maxOcallArgs*24]
	}
	var clean [dArgs + maxOcallArgs*24]byte
	copy(clean[:], desc)
	binary.LittleEndian.PutUint64(clean[dRet:], 0xdead)
	binary.LittleEndian.PutUint64(clean[dErrno:], 0xdead)
	if err := a.mem.Write(a.sharedVirt+descOff, clean[:]); err != nil {
		t.Fatal(err)
	}
	if len(stage) > stageLimit {
		stage = stage[:stageLimit]
	}
	if err := a.mem.Write(a.sharedVirt+stageOff, stage); err != nil {
		t.Fatal(err)
	}
	if err := a.ServeOcall(0); err != nil {
		return 0, 0, err
	}
	var r [16]byte
	if err := a.mem.Read(a.sharedVirt+dRet, r[:]); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(r[0:]), binary.LittleEndian.Uint64(r[8:]), nil
}

// TestOcallServerRefusesMalformedDescriptor sends descriptors with too
// few slots for their call, and a staged length that wraps the stage
// bound: each ends in EINVAL, not a host panic.
func TestOcallServerRefusesMalformedDescriptor(t *testing.T) {
	c := bootVeil(t)
	a, _ := launch(t, c, ProgramFunc(func(Libc, []string) int { return 0 }))
	huge := ^uint64(0) - stageOff + 1 // 2^64 - stageOff
	cases := []struct {
		name string
		desc []byte
	}{
		{"read with one slot", rawDescriptor(0, 1, ocallArg{val: 0})},
		{"write with no slots", rawDescriptor(1, 0)},
		{"sendto with two slots", rawDescriptor(44, 2, ocallArg{val: 3}, ocallArg{stage: stageOff, length: 4})},
		{"write of a wrapping length", rawDescriptor(1, 3,
			ocallArg{val: 1}, ocallArg{stage: stageOff, length: huge}, ocallArg{val: huge})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("the OCALL server panicked: %v", r)
				}
			}()
			ret, errno, err := serveRaw(t, a, tc.desc, nil)
			if err != nil || ret != ^uint64(0) || errno != 22 {
				t.Fatalf("ret=%#x errno=%d err=%v, want ret=-1 errno=22 (EINVAL)", ret, errno, err)
			}
		})
	}
	if h := c.M.Halted(); h != nil {
		t.Fatalf("machine halted: %v", h)
	}
}

// TestOcallArityCoversEveryCase holds ocallArity to dispatch: every number
// in the table, and both pseudo-syscalls, is refused one slot short and
// served with exactly its slots without reading past them (a call that
// reads a slot its entry does not count would index past the arguments).
// Only a number whose entry reads no slots may be unsupported (ENOSYS),
// and no entry reads more than maxServedSlots, all that request decodes.
// The slots stage 1 or 8 zero bytes, so a call gets past its staged path
// or sockaddr to the slots after it.
func TestOcallArityCoversEveryCase(t *testing.T) {
	c := bootVeil(t)
	a, _ := launch(t, c, ProgramFunc(func(Libc, []string) int { return 0 }))
	for _, staged := range []uint64{1, 8} {
		var slots [maxOcallArgs]ocallArg
		for i := range slots {
			slots[i] = ocallArg{stage: stageOff + 64*uint64(i), length: staged}
		}
		nums := []uint64{sysPageIn, sysBatch}
		for n := range ocallArity {
			nums = append(nums, uint64(n))
		}
		for _, sysno := range nums {
			need := ocallSlots(sysno)
			if need > maxServedSlots {
				t.Fatalf("sysno %d reads %d slots, more than maxServedSlots (%d)", sysno, need, maxServedSlots)
			}
			if need > 0 {
				ret, errno, err := serveRaw(t, a, rawDescriptor(sysno, uint64(need-1), slots[:need-1]...), make([]byte, 1024))
				if err != nil || ret != ^uint64(0) || errno != 22 {
					t.Fatalf("sysno %d with %d of %d slots: ret=%#x errno=%d err=%v, want EINVAL", sysno, need-1, need, ret, errno, err)
				}
			}
			if _, errno, err := serveRaw(t, a, rawDescriptor(sysno, uint64(need), slots[:need]...), make([]byte, 1024)); err != nil || (errno == 38 && need > 0) {
				t.Fatalf("sysno %d with its %d slots: errno=%d err=%v", sysno, need, errno, err)
			}
		}
	}
}

// FuzzOcallRequest drives the OCALL server with raw bytes: the first
// dArgs+16×24 bytes of the input overwrite the descriptor, the rest the
// staging area. Whatever they say, the server must answer with a reply
// frame or refuse the frame with an error: never panic, never halt the
// machine. Each input runs on a fresh machine, so no input inherits the
// files or mappings an earlier one made.
func FuzzOcallRequest(f *testing.F) {
	huge := ^uint64(0) - stageOff + 1
	path := []byte("/tmp/fuzz\x00")
	f.Add(rawDescriptor(0, 1, ocallArg{val: 0}))
	f.Add(rawDescriptor(1, 0))
	f.Add(rawDescriptor(44, 2, ocallArg{val: 3}, ocallArg{stage: stageOff, length: 4}))
	f.Add(rawDescriptor(1, 3, ocallArg{val: 1}, ocallArg{stage: stageOff, length: huge}, ocallArg{val: huge}))
	f.Add(rawDescriptor(1, 3, ocallArg{val: 1}, ocallArg{stage: stageOff, length: 5}, ocallArg{val: 5}))
	f.Add(append(rawDescriptor(2, 3, ocallArg{stage: stageOff, length: uint64(len(path))},
		ocallArg{val: 0x42}, ocallArg{val: 0o600}), path...))
	f.Add(rawDescriptor(4, 2, ocallArg{stage: stageOff, length: 1}, ocallArg{stage: stageOff + 64, length: 144}))
	f.Add(rawDescriptor(17, 4, ocallArg{val: 0}, ocallArg{stage: stageOff, length: 16}, ocallArg{val: 16}, ocallArg{val: 1 << 40}))
	f.Add(rawDescriptor(77, 2, ocallArg{val: 1}, ocallArg{val: 1 << 40}))
	f.Add(rawDescriptor(96, 1, ocallArg{stage: ^uint64(0)}))
	f.Add(rawDescriptor(sysBatch, 1, ocallArg{val: 64}))
	f.Add(rawDescriptor(sysPageIn, 1, ocallArg{val: 0x1000}))
	f.Fuzz(func(t *testing.T, in []byte) {
		c := bootVeil(t)
		defer c.M.Release()
		a, _ := launch(t, c, ProgramFunc(func(Libc, []string) int { return 0 }))
		desc, stage := in, []byte(nil)
		if n := dArgs + maxOcallArgs*24; len(in) > n {
			desc, stage = in[:n], in[n:]
		}
		_, errno, err := serveRaw(t, a, desc, stage)
		if err == nil && errno != 0 && errno != 5 && errno != 38 && errors.Is(errFor(errno), ErrIO) {
			t.Fatalf("reply errno %d is not one the SDK maps", errno)
		}
		if h := c.M.Halted(); h != nil {
			t.Fatalf("machine halted: %v", h)
		}
	})
}

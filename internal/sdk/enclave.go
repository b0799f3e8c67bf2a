package sdk

import (
	"encoding/binary"
	"fmt"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/hv"
	"veil/internal/kernel"
	"veil/internal/sdk/sanitizer"
	"veil/internal/services/enc"
	"veil/internal/snp"
)

// EnclaveRuntime is the trusted half of the SDK: the code standing in for
// the enclave binary. It runs in Dom-ENC (VMPL2+CPL3) behind the protected
// page-table clone, provides the in-enclave libc, and performs the
// spec-driven deep copies of every redirected syscall (§6.2, §7).
type EnclaveRuntime struct {
	c    *cvm.CVM
	view enc.View
	prog Program

	shared uint64 // shared region base (virtual, same in both table trees)

	exits uint64
	calls uint64
	dead  bool

	// ghcb is the one GHCB every syscall exit is built in (snp.GHCB.Exit).
	ghcb snp.GHCB
}

var _ snp.Context = (*EnclaveRuntime)(nil)
var _ Libc = (*EnclaveRuntime)(nil)

func newEnclaveRuntime(c *cvm.CVM, view enc.View, prog Program, shared uint64) *EnclaveRuntime {
	return &EnclaveRuntime{c: c, view: view, prog: prog, shared: shared}
}

// View returns the enclave's protected view (tests).
func (e *EnclaveRuntime) View() enc.View { return e.view }

// Exits returns the number of enclave exits taken so far.
func (e *EnclaveRuntime) Exits() uint64 { return e.exits }

// Calls returns the number of redirected syscalls marshalled so far.
func (e *EnclaveRuntime) Calls() uint64 { return e.calls }

// Dead reports whether the enclave was killed.
func (e *EnclaveRuntime) Dead() bool { return e.dead }

// Invoke is the Dom-ENC VMSA entry.
func (e *EnclaveRuntime) Invoke(r snp.Reason) error {
	if r == snp.ReasonInterrupt {
		// Hostile hypervisor refused to relay the interrupt to Dom-UNT
		// (§6.2, Table 2): the OS interrupt handler is unmapped in the
		// protected tables and the enclave cannot run supervisor code, so
		// delivery faults over and over and the CVM halts.
		const osHandlerVirt = 0x0000_7FFF_FF00_0000
		ferr := e.view.Mem.FetchCheck(osHandlerVirt)
		f := &snp.Fault{
			Kind: snp.FaultNPF, VMPL: snp.VMPL2, CPL: snp.CPL3,
			Access: snp.AccessExec, Virt: osHandlerVirt,
			Why: fmt.Sprintf("interrupt vector unreachable from enclave (%v)", ferr),
		}
		return e.c.M.Halt(f)
	}
	if e.dead {
		_ = e.wu64(eStatus, 1)
		return nil
	}
	cmd, err := e.du64(eCmd)
	if err != nil {
		return err
	}
	if cmd != cmdRun {
		return fmt.Errorf("sdk: unknown enclave command %d", cmd)
	}
	args, err := e.readArgs()
	if err != nil {
		return err
	}
	rc := e.prog.Main(e, args)
	status := uint64(0)
	if e.dead {
		status = 1
	}
	if err := e.wu64(eStatus, status); err != nil {
		return err
	}
	return e.wu64(eExit, uint64(int64(rc)))
}

// readArgs decodes the argv the application serialized into the entry
// block. Its length word is untrusted: a length past the argv area is
// refused, with a DeniedSanitize event naming the length, before anything
// is allocated or read.
func (e *EnclaveRuntime) readArgs() ([]string, error) {
	n, err := e.du64(eArgLen)
	if err != nil || n == 0 {
		return nil, err
	}
	if n > argvMax {
		e.c.M.ObserveDenied(snp.DeniedSanitize, n)
		return nil, fmt.Errorf("%w: the entry block claims %d bytes, the argv area holds %d", ErrArgvTooLong, n, argvMax)
	}
	raw := make([]byte, n)
	if err := e.read(e.shared+eArgs, raw); err != nil {
		return nil, err
	}
	if len(raw) < 4 {
		return nil, nil
	}
	// The count word is untrusted too: every entry takes at least its
	// 4-byte length word, so no more than that many can be there.
	cnt := min(binary.LittleEndian.Uint32(raw), uint32(len(raw)-4)/4)
	off := 4
	out := make([]string, 0, cnt)
	for i := uint32(0); i < cnt && off+4 <= len(raw); i++ {
		l := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		if off+l > len(raw) {
			break
		}
		out = append(out, string(raw[off:off+l]))
		off += l
	}
	return out, nil
}

// CyclesMarshalFixed is the per-redirected-call fixed cost of the
// sanitizer: descriptor construction, spec checks and stage management.
const CyclesMarshalFixed = 1200

// marshalCopyFactor scales the plain memcpy cost for the deep-copy path:
// grammar-driven copying with validation runs ~4× slower than memcpy
// (≈0.7 cycles/byte), which is what the Fig. 5 "Syscall-Redirect" share
// measures.
const marshalCopyFactor = 4

// Guest-memory helpers through the enclave's protected view, with copy-cost
// accounting (these crossings are the "Syscall-Redirect" bars of Fig. 5).
func (e *EnclaveRuntime) chargeCopy(n int) {
	if n > 0 {
		e.c.M.Clock().Charge(snp.CostPageCopy,
			uint64(n)*snp.CyclesPageCopy4K*marshalCopyFactor/snp.PageSize+1)
	}
}

func (e *EnclaveRuntime) read(virt uint64, buf []byte) error {
	e.chargeCopy(len(buf))
	return e.view.Mem.Read(virt, buf)
}

func (e *EnclaveRuntime) write(virt uint64, buf []byte) error {
	e.chargeCopy(len(buf))
	return e.view.Mem.Write(virt, buf)
}

func (e *EnclaveRuntime) du64(off uint64) (uint64, error) { return e.view.Mem.ReadU64(e.shared + off) }
func (e *EnclaveRuntime) wu64(off uint64, v uint64) error {
	return e.view.Mem.WriteU64(e.shared+off, v)
}

// exitForSyscall performs the Dom-ENC → Dom-UNT → Dom-ENC round trip
// through the user GHCB.
func (e *EnclaveRuntime) exitForSyscall() error {
	e.exits++
	e.c.ENC.ChargeEnclaveExit()
	g := e.ghcb.Exit(hv.ExitDomainSwitch, core.DomUNT)
	return e.c.HV.GuestCall(e.view.VCPU, snp.VMPL2, snp.CPL3, e.view.GHCB, g)
}

// Every spec's arguments fit the descriptor's slots: this stops compiling
// if sanitizer.MaxArgs outgrows maxOcallArgs.
const _ = uint(maxOcallArgs - sanitizer.MaxArgs)

// call is the redirection engine. It runs the call's compiled plan in
// three passes: validate and size the arguments, stage the inputs in the
// shared region and exit to the application, then copy the outputs back
// and apply the IAGO return check.
func (e *EnclaveRuntime) call(num int, args []sanitizer.Arg) (uint64, error) {
	if e.dead {
		return 0, ErrEnclaveDead
	}
	plan := sanitizer.PlanFor(num)
	if plan == nil {
		// Unsupported syscall: the SDK kills the enclave (§7).
		e.kill(num)
		return 0, sanitizer.ErrUnsupported
	}
	size, err := plan.Size(args)
	if err != nil {
		return 0, err
	}
	if size > stageLimit {
		return 0, fmt.Errorf("sdk: %s transfers exceed staging capacity", plan.Name())
	}
	e.calls++
	e.c.M.Clock().Charge(snp.CostCompute, CyclesMarshalFixed)

	// Stage buffers and build the descriptor. Size holds args to the
	// plan's arity, which registration bounds by sanitizer.MaxArgs.
	var slotBuf [sanitizer.MaxArgs]ocallArg
	slots := slotBuf[:len(args)]
	off := uint64(stageOff)
	for i := range slots {
		ap, a := &plan.Args[i], &args[i]
		var n uint64
		switch ap.Kind {
		case sanitizer.Scalar:
			slots[i].val = a.Val
			continue
		case sanitizer.Path:
			n = uint64(len(a.Buf)) + 1 // staged NUL-terminated
			// One charge for the whole staged path, then the bytes land
			// directly in the staging area — no assembly buffer.
			e.chargeCopy(int(n))
			if err := e.stagePath(e.shared+off, a.Buf); err != nil {
				return 0, err
			}
			slots[i] = ocallArg{stage: off, length: n}
			off = (off + n + 7) &^ 7
			continue
		case sanitizer.StructPtr:
			if a.Buf == nil {
				continue // NULL pointer: a zero slot
			}
			n = uint64(len(a.Buf))
		case sanitizer.Buffer:
			n = uint64(len(a.Buf))
			if ap.LenArg >= 0 {
				n = args[ap.LenArg].Val
			}
		case sanitizer.IOVec:
			for _, v := range a.Vec {
				n += uint64(len(v))
			}
		}
		if ap.In {
			if ap.Kind == sanitizer.IOVec {
				// Gather the vector straight into the staging area:
				// one copy charge for the total, no assembly buffer.
				e.chargeCopy(int(n))
				seg := e.shared + off
				for _, v := range a.Vec {
					if err := e.view.Mem.Write(seg, v); err != nil {
						return 0, err
					}
					seg += uint64(len(v))
				}
			} else if err := e.write(e.shared+off, a.Buf[:n]); err != nil {
				return 0, err
			}
		}
		slots[i] = ocallArg{val: a.Val, stage: off, length: n}
		off = (off + n + 7) &^ 7
	}
	if err := e.submit(uint64(num), slots, 3*len(slots)); err != nil {
		return 0, err
	}

	// Exit to the untrusted application; it performs the real syscall.
	if err := e.exitForSyscall(); err != nil {
		return 0, err
	}

	ret, errno, err := e.reply()
	if err != nil {
		return 0, err
	}
	if errno == 38 { // ENOSYS from the application side
		e.kill(num)
		return 0, sanitizer.ErrUnsupported
	}
	if errno == 0 {
		// Copy outputs back into enclave memory.
		for i := range slots {
			ap, a := &plan.Args[i], &args[i]
			if !ap.Out {
				continue
			}
			if ap.Kind == sanitizer.IOVec {
				// readv/recvmsg fill their vectors in order: scatter the
				// first ret staged bytes back.
				if err := e.scatter(e.shared+slots[i].stage, min(ret, slots[i].length), a.Vec); err != nil {
					return 0, err
				}
				continue
			}
			if a.Buf == nil {
				continue
			}
			n := slots[i].length
			if ap.Kind == sanitizer.Buffer && ret < n {
				n = ret // read-style calls fill only ret bytes
			}
			if n > uint64(len(a.Buf)) {
				n = uint64(len(a.Buf))
			}
			if n == 0 {
				continue
			}
			if err := e.read(e.shared+slots[i].stage, a.Buf[:n]); err != nil {
				return 0, err
			}
		}
		// IAGO defence: pointer returns must be outside the enclave, byte
		// counts within the buffer the enclave asked for, descriptors and
		// offsets in range.
		if err := plan.CheckRet(ret, args, e.view.Base, e.view.Length); err != nil {
			e.kill(num)
			return 0, err
		}
	}
	return ret, errFor(errno)
}

// stagePath writes path and its NUL terminator at virt in the shared
// region, one write span per page those len(path)+1 bytes touch.
func (e *EnclaveRuntime) stagePath(virt uint64, path []byte) error {
	end := virt + uint64(len(path)) + 1
	for v := virt; v < end; {
		chunk := min(end-v, snp.PageSize-snp.PageOffset(v))
		src := path[min(v-virt, uint64(len(path))):]
		err := e.view.Mem.WithSpan(v, int(chunk), snp.AccessWrite, func(dst []byte) error {
			if k := copy(dst, src); k < len(dst) {
				dst[k] = 0 // the terminator ends the last chunk
			}
			return nil
		})
		if err != nil {
			return err
		}
		v += chunk
	}
	return nil
}

// scatter copies the n staged bytes at virt back into vec, filling each
// vector in order; one copy charge covers them all.
func (e *EnclaveRuntime) scatter(virt, n uint64, vec [][]byte) error {
	e.chargeCopy(int(n))
	for _, v := range vec {
		if n == 0 {
			break
		}
		k := min(n, uint64(len(v)))
		if err := e.view.Mem.Read(virt, v[:k]); err != nil {
			return err
		}
		virt, n = virt+k, n-k
	}
	return nil
}

// kill marks the enclave dead and leaves the post-mortem its cause: a
// DeniedIago event naming the syscall that killed it.
func (e *EnclaveRuntime) kill(num int) {
	e.dead = true
	e.c.M.ObserveDenied(snp.DeniedIago, uint64(num))
}

// --- Libc over the redirection engine ---

// The wrappers build their arguments as keyed literals in place: a
// helper returning a sanitizer.Arg would zero a 56-byte temporary per
// argument on top of the argument array itself.

// Open implements Libc.
func (e *EnclaveRuntime) Open(path string, flags int, mode uint32) (int, error) {
	ret, err := e.call(2, []sanitizer.Arg{{Buf: []byte(path)}, {Val: uint64(flags)}, {Val: uint64(mode)}})
	return int(int64(ret)), err
}

// Close implements Libc.
func (e *EnclaveRuntime) Close(fd int) error {
	_, err := e.call(3, []sanitizer.Arg{{Val: uint64(fd)}})
	return err
}

// chunked splits large transfers to fit the staging area.
func (e *EnclaveRuntime) chunked(buf []byte, fn func(chunk []byte) (int, error)) (int, error) {
	const max = stageLimit - 64
	total := 0
	for len(buf) > 0 {
		n := len(buf)
		if n > max {
			n = max
		}
		did, err := fn(buf[:n])
		total += did
		if err != nil {
			return total, err
		}
		if did < n {
			break
		}
		buf = buf[n:]
	}
	return total, nil
}

// Read implements Libc.
func (e *EnclaveRuntime) Read(fd int, buf []byte) (int, error) {
	return e.chunked(buf, func(c []byte) (int, error) {
		ret, err := e.call(0, []sanitizer.Arg{{Val: uint64(fd)}, {Buf: c}, {Val: uint64(len(c))}})
		return int(int64(ret)), err
	})
}

// Write implements Libc.
func (e *EnclaveRuntime) Write(fd int, buf []byte) (int, error) {
	return e.chunked(buf, func(c []byte) (int, error) {
		ret, err := e.call(1, []sanitizer.Arg{{Val: uint64(fd)}, {Buf: c}, {Val: uint64(len(c))}})
		return int(int64(ret)), err
	})
}

// Pread implements Libc.
func (e *EnclaveRuntime) Pread(fd int, buf []byte, off int64) (int, error) {
	ret, err := e.call(17, []sanitizer.Arg{{Val: uint64(fd)}, {Buf: buf}, {Val: uint64(len(buf))}, {Val: uint64(off)}})
	return int(int64(ret)), err
}

// Pwrite implements Libc.
func (e *EnclaveRuntime) Pwrite(fd int, buf []byte, off int64) (int, error) {
	ret, err := e.call(18, []sanitizer.Arg{{Val: uint64(fd)}, {Buf: buf}, {Val: uint64(len(buf))}, {Val: uint64(off)}})
	return int(int64(ret)), err
}

// Lseek implements Libc.
func (e *EnclaveRuntime) Lseek(fd int, off int64, whence int) (int64, error) {
	ret, err := e.call(8, []sanitizer.Arg{{Val: uint64(fd)}, {Val: uint64(off)}, {Val: uint64(whence)}})
	return int64(ret), err
}

func decodeStat(sb []byte) kernel.FileInfo {
	var fi kernel.FileInfo
	fi.Size = int64(binary.LittleEndian.Uint64(sb[0:]))
	fi.Mode = binary.LittleEndian.Uint32(sb[8:])
	fi.Dir = sb[12] == 1
	fi.Nlink = int(binary.LittleEndian.Uint32(sb[16:]))
	return fi
}

// Stat implements Libc.
func (e *EnclaveRuntime) Stat(path string) (kernel.FileInfo, error) {
	sb := make([]byte, 144)
	_, err := e.call(4, []sanitizer.Arg{{Buf: []byte(path)}, {Buf: sb}})
	if err != nil {
		return kernel.FileInfo{}, err
	}
	return decodeStat(sb), nil
}

// Fstat implements Libc.
func (e *EnclaveRuntime) Fstat(fd int) (kernel.FileInfo, error) {
	sb := make([]byte, 144)
	_, err := e.call(5, []sanitizer.Arg{{Val: uint64(fd)}, {Buf: sb}})
	if err != nil {
		return kernel.FileInfo{}, err
	}
	return decodeStat(sb), nil
}

// Unlink implements Libc.
func (e *EnclaveRuntime) Unlink(path string) error {
	_, err := e.call(87, []sanitizer.Arg{{Buf: []byte(path)}})
	return err
}

// Rename implements Libc.
func (e *EnclaveRuntime) Rename(oldp, newp string) error {
	_, err := e.call(82, []sanitizer.Arg{{Buf: []byte(oldp)}, {Buf: []byte(newp)}})
	return err
}

// Mkdir implements Libc.
func (e *EnclaveRuntime) Mkdir(path string, mode uint32) error {
	_, err := e.call(83, []sanitizer.Arg{{Buf: []byte(path)}, {Val: uint64(mode)}})
	return err
}

// Truncate implements Libc.
func (e *EnclaveRuntime) Truncate(path string, size int64) error {
	_, err := e.call(76, []sanitizer.Arg{{Buf: []byte(path)}, {Val: uint64(size)}})
	return err
}

// Ftruncate implements Libc.
func (e *EnclaveRuntime) Ftruncate(fd int, size int64) error {
	_, err := e.call(77, []sanitizer.Arg{{Val: uint64(fd)}, {Val: uint64(size)}})
	return err
}

// Mmap implements Libc. The returned region is *untrusted* memory (outside
// the enclave): that is the SGX OCALL semantic, and the IAGO check enforces
// it.
func (e *EnclaveRuntime) Mmap(length uint64, prot uint64) (uint64, error) {
	return e.call(9, []sanitizer.Arg{{Val: 0}, {Val: length}, {Val: prot}, {Val: 0}, {Val: ^uint64(0)}, {Val: 0}})
}

// Munmap implements Libc.
func (e *EnclaveRuntime) Munmap(addr uint64) error {
	_, err := e.call(11, []sanitizer.Arg{{Val: addr}, {Val: 0}})
	return err
}

// Mprotect implements Libc: for enclave addresses the request goes to
// VeilS-Enc (the OS may not change enclave permissions); for untrusted
// addresses it is redirected like any other syscall.
func (e *EnclaveRuntime) Mprotect(addr, length uint64, prot uint64) error {
	if addr >= e.view.Base && addr < e.view.Base+e.view.Length {
		return e.c.ENC.EnclaveProtect(e.view.ID, addr, length, prot)
	}
	_, err := e.call(10, []sanitizer.Arg{{Val: addr}, {Val: length}, {Val: prot}})
	return err
}

func sockaddr(port int) []byte {
	sa := make([]byte, 16)
	binary.LittleEndian.PutUint64(sa, uint64(port))
	return sa
}

// Socket implements Libc.
func (e *EnclaveRuntime) Socket(domain, typ int) (int, error) {
	ret, err := e.call(41, []sanitizer.Arg{{Val: uint64(domain)}, {Val: uint64(typ)}, {Val: 0}})
	return int(int64(ret)), err
}

// Bind implements Libc.
func (e *EnclaveRuntime) Bind(fd, port int) error {
	_, err := e.call(49, []sanitizer.Arg{{Val: uint64(fd)}, {Buf: sockaddr(port)}, {Val: 16}})
	return err
}

// Listen implements Libc.
func (e *EnclaveRuntime) Listen(fd, backlog int) error {
	_, err := e.call(50, []sanitizer.Arg{{Val: uint64(fd)}, {Val: uint64(backlog)}})
	return err
}

// Accept implements Libc.
func (e *EnclaveRuntime) Accept(fd int) (int, error) {
	addr := make([]byte, 16)
	alen := make([]byte, 4)
	ret, err := e.call(43, []sanitizer.Arg{{Val: uint64(fd)}, {Buf: addr}, {Buf: alen}})
	return int(int64(ret)), err
}

// Connect implements Libc.
func (e *EnclaveRuntime) Connect(fd, port int) error {
	_, err := e.call(42, []sanitizer.Arg{{Val: uint64(fd)}, {Buf: sockaddr(port)}, {Val: 16}})
	return err
}

// Send implements Libc.
func (e *EnclaveRuntime) Send(fd int, buf []byte) (int, error) {
	return e.chunked(buf, func(c []byte) (int, error) {
		ret, err := e.call(44, []sanitizer.Arg{
			{Val: uint64(fd)}, {Buf: c}, {Val: uint64(len(c))}, {Val: 0}, {Buf: nil}, {Val: 0}})
		return int(int64(ret)), err
	})
}

// Recv implements Libc.
func (e *EnclaveRuntime) Recv(fd int, buf []byte) (int, error) {
	addr := make([]byte, 16)
	alen := make([]byte, 4)
	ret, err := e.call(45, []sanitizer.Arg{
		{Val: uint64(fd)}, {Buf: buf}, {Val: uint64(len(buf))}, {Val: 0}, {Buf: addr}, {Buf: alen}})
	return int(int64(ret)), err
}

// Getpid implements Libc.
func (e *EnclaveRuntime) Getpid() int {
	ret, _ := e.call(39, nil)
	return int(int64(ret))
}

// Yield implements Libc.
func (e *EnclaveRuntime) Yield() { _, _ = e.call(24, nil) }

// Print implements Libc.
func (e *EnclaveRuntime) Print(msg string) error {
	_, err := e.Write(1, []byte(msg))
	return err
}

// Burn implements Libc: in-enclave compute runs at native speed (VMPL
// isolation adds no per-instruction cost — the paper's key advantage over
// software monitors).
func (e *EnclaveRuntime) Burn(cycles uint64) {
	e.c.M.Clock().Charge(snp.CostCompute, cycles)
}

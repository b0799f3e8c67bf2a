package sdk

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"veil/internal/cvm"
	"veil/internal/hv"
	"veil/internal/kernel"
	"veil/internal/services/enc"
	"veil/internal/snp"
)

// AppRuntime is the untrusted half of the SDK inside one process: it
// installs the enclave, enters it through the user-mapped GHCB, and serves
// the enclave's redirected syscalls (the OCALL server the enclave exits to,
// §6.2 "System call redirection to untrusted application").
type AppRuntime struct {
	C *cvm.CVM
	P *kernel.Process

	ID          uint32
	Tag         uint64
	GHCB        uint64
	Measurement [32]byte

	sharedVirt uint64
	mem        snp.AccessContext
	enclave    *EnclaveRuntime
	devFD      int
	// frames is the OS's virt→frame tracking for demand paging (§6.2).
	frames map[uint64]uint64
	// stage is the OCALL server's one staging buffer, at most stageLimit
	// bytes: readStage copies staged bytes into it and the read-style
	// calls fill it from the kernel. A slice of it is valid only until
	// the next stage read.
	stage []byte
	// ghcb is the one GHCB every enclave entry is built in
	// (snp.GHCB.Exit).
	ghcb snp.GHCB
}

var tokenCounter uint32

// EnclaveConfig sizes the enclave.
type EnclaveConfig struct {
	// Image is the enclave binary (self-contained, own libc; its behaviour
	// is the Program).
	Image []byte
	// RegionPages is the total enclave size in pages (binary + heap +
	// stack); like the paper's prototype, every page is mapped at
	// initialization.
	RegionPages uint64
}

// LaunchEnclave installs prog as an enclave in process p and returns the
// runtime handle. The process keeps running untrusted; sensitive work
// happens only inside Enter.
func LaunchEnclave(c *cvm.CVM, p *kernel.Process, prog Program, cfg EnclaveConfig) (*AppRuntime, error) {
	if err := InstallDevice(c); err != nil {
		return nil, err
	}
	if cfg.RegionPages == 0 {
		cfg.RegionPages = 64
	}
	if len(cfg.Image) == 0 {
		cfg.Image = []byte("veil-enclave-binary\x00")
	}
	a := &AppRuntime{C: c, P: p}
	mem, err := p.Mem()
	if err != nil {
		return nil, err
	}
	a.mem = mem

	// The shared region must exist before finalize so the cloned tables
	// map it.
	sharedVirt, err := c.K.Mmap(p, SharedLen, kernel.ProtRead|kernel.ProtWrite)
	if err != nil {
		return nil, err
	}
	a.sharedVirt = sharedVirt

	// Stage the binary in app memory for the kernel module to copy.
	imgVirt, err := c.K.Mmap(p, uint64(len(cfg.Image)), kernel.ProtRead|kernel.ProtWrite)
	if err != nil {
		return nil, err
	}
	if err := mem.Write(imgVirt, cfg.Image); err != nil {
		return nil, err
	}

	// Wire the trusted runtime: VeilS-Enc invokes the factory during
	// finalization with the protected view.
	token := atomic.AddUint32(&tokenCounter, 1)
	c.ENC.RegisterContext(token, func(view enc.View) snp.Context {
		er := newEnclaveRuntime(c, view, prog, sharedVirt)
		a.enclave = er
		return er
	})

	fd, err := c.K.Open(p, DevicePath, kernel.ORdwr, 0)
	if err != nil {
		return nil, err
	}
	a.devFD = fd
	arg := make([]byte, createReplyLen)
	le := binary.LittleEndian
	le.PutUint32(arg[0:], token)
	le.PutUint64(arg[4:], imgVirt)
	le.PutUint64(arg[12:], uint64(len(cfg.Image)))
	le.PutUint64(arg[20:], cfg.RegionPages)
	le.PutUint64(arg[28:], 0) // entry offset: the program starts at the region base
	if _, err := c.K.Ioctl(p, fd, ReqCreateEnclave, arg); err != nil {
		return nil, fmt.Errorf("sdk: enclave create ioctl: %w", err)
	}
	a.ID = le.Uint32(arg[0:])
	a.GHCB = le.Uint64(arg[4:])
	copy(a.Measurement[:], arg[12:44])
	a.Tag = 100 + uint64(a.ID)
	if a.enclave == nil {
		return nil, fmt.Errorf("sdk: enclave context factory never ran")
	}

	// Release the staging mapping; the clone keeps its own view.
	if err := c.K.Munmap(p, imgVirt); err != nil {
		return nil, err
	}

	return a, nil
}

// Enter runs the enclave program once on VCPU 0 with the given arguments
// and returns its exit code (the ECALL of the SGX model).
func (a *AppRuntime) Enter(args ...string) (int, error) {
	const vcpu = 0
	if a.enclave == nil {
		return -1, fmt.Errorf("sdk: no enclave")
	}
	// The OS scheduler hook: point the VCPU's GHCB MSR at the enclave's
	// GHCB before running the enclave-hosting task (§6.2).
	if err := a.C.K.ScheduleEnclaveGHCB(vcpu, a.GHCB); err != nil {
		return -1, err
	}
	// This application serves redirected syscalls while its enclave runs
	// on this VCPU; restore the previous server afterwards so multiple
	// enclaves never steal each other's OCALLs.
	prev := a.C.SwapOcallServer(vcpu, a.ServeOcall)
	defer a.C.SwapOcallServer(vcpu, prev)
	// Serialize argv into the entry block.
	var argBytes []byte
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(args)))
	argBytes = append(argBytes, cnt[:]...)
	for _, s := range args {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
		argBytes = append(argBytes, l[:]...)
		argBytes = append(argBytes, s...)
	}
	if len(argBytes) > argvMax {
		return -1, ErrArgvTooLong
	}
	if err := a.mem.WriteU64(a.sharedVirt+eCmd, cmdRun); err != nil {
		return -1, err
	}
	if err := a.mem.WriteU64(a.sharedVirt+eArgLen, uint64(len(argBytes))); err != nil {
		return -1, err
	}
	if len(argBytes) > 0 {
		if err := a.mem.Write(a.sharedVirt+eArgs, argBytes); err != nil {
			return -1, err
		}
	}
	// Enter the enclave: a hypervisor-relayed switch through the user
	// GHCB (the MSR write happened above, at CPL0, via the scheduler).
	// The whole call — switch in, enclave execution including its OCALL
	// round trips, switch back — is one causal span tagged with the
	// enclave's domain tag.
	start := a.C.M.Clock().Cycles()
	ref := a.C.M.BeginSpan()
	g := a.ghcb.Exit(hv.ExitDomainSwitch, a.Tag)
	err := a.C.HV.GuestCall(vcpu, snp.VMPL3, snp.CPL3, a.GHCB, g)
	a.C.M.ObserveEnclaveEnter(a.Tag, start, ref)
	if err != nil {
		return -1, fmt.Errorf("sdk: enclave entry: %w", err)
	}
	status, err := a.mem.ReadU64(a.sharedVirt + eStatus)
	if err != nil {
		return -1, err
	}
	exit, err := a.mem.ReadU64(a.sharedVirt + eExit)
	if err != nil {
		return -1, err
	}
	if status != 0 {
		return int(int64(exit)), ErrEnclaveDead
	}
	return int(int64(exit)), nil
}

// Enclave exposes the trusted runtime (tests and attack drills).
func (a *AppRuntime) Enclave() *EnclaveRuntime { return a.enclave }

// --- the OCALL server ---

// inStage reports whether [off, off+n) lies inside the staging area. The
// bound is written so that no n, however large, can wrap it.
func inStage(off, n uint64) bool {
	return off >= stageOff && off <= SharedLen && n <= SharedLen-off
}

// stageBuf returns n bytes of the server's staging buffer to hold the
// staged range [off, off+n), or EINVAL if the range leaves the staging
// area (so n never exceeds stageLimit). The slice is valid only until the
// next stage read.
func (a *AppRuntime) stageBuf(off, n uint64) ([]byte, error) {
	if !inStage(off, n) {
		return nil, kernel.ErrInval
	}
	if a.stage == nil {
		a.stage = make([]byte, stageLimit)
	}
	return a.stage[:n], nil
}

// readStage copies the staged bytes at [off, off+n) into the staging
// buffer and returns them.
func (a *AppRuntime) readStage(off, n uint64) ([]byte, error) {
	buf, err := a.stageBuf(off, n)
	if err != nil {
		return nil, err
	}
	if err := a.mem.Read(a.sharedVirt+off, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func (a *AppRuntime) writeStage(off uint64, b []byte) error {
	if !inStage(off, uint64(len(b))) {
		return kernel.ErrInval
	}
	return a.mem.Write(a.sharedVirt+off, b)
}

// ocallArity gives, indexed by syscall number, how many descriptor slots
// dispatch reads for the call. A request with fewer is refused with
// EINVAL before any slot is read; a number not listed reads none (it is
// served without arguments or falls through to dispatch's ENOSYS).
var ocallArity = [...]int{
	0: 3, 1: 3, 2: 3, 3: 1, 4: 2, 5: 2, 8: 3, 9: 3, 10: 3, 11: 1,
	17: 4, 18: 4, 24: 0, 39: 0, 41: 2, 42: 2, 43: 1, 44: 3, 45: 3,
	49: 2, 50: 2, 76: 2, 77: 2, 82: 2, 83: 2, 87: 1, 96: 1,
}

// maxServedSlots is the most slots dispatch reads for any call, the
// largest ocallSlots value: request decodes no more than that.
const maxServedSlots = 4

// ocallSlots is the number of descriptor slots dispatch reads for sysno:
// ocallArity's entry, or one for the SDK-private pseudo-syscalls.
func ocallSlots(sysno uint64) int {
	switch {
	case sysno == sysPageIn, sysno == sysBatch:
		return 1
	case sysno < uint64(len(ocallArity)):
		return ocallArity[sysno]
	}
	return 0
}

// ServeOcall handles one redirected syscall: the Dom-UNT entry invoked when
// the enclave exits for a system call. It reads the request frame, performs
// the real syscall against the kernel, stages the results and writes the
// reply frame.
func (a *AppRuntime) ServeOcall(vcpu int) error {
	var slots [maxServedSlots]ocallArg
	sysno, args, err := a.request(&slots)
	if err != nil {
		return err
	}
	return a.Respond(a.dispatch(sysno, args))
}

// dispatch maps descriptor syscalls onto kernel operations. Unsupported
// numbers return ENOSYS (38); the enclave side then kills the enclave, the
// paper's documented policy for unported syscalls.
func (a *AppRuntime) dispatch(sysno uint64, args []ocallArg) (uint64, uint64) {
	k, p := a.C.K, a.P
	fail := func(err error) (uint64, uint64) { return ^uint64(0), errnoFor(err) }
	okv := func(v uint64) (uint64, uint64) { return v, 0 }

	stagePath := func(i int) (string, bool) {
		b, err := a.readStage(args[i].stage, args[i].length)
		if err != nil || len(b) == 0 {
			return "", false
		}
		return string(b[:len(b)-1]), true // strip NUL
	}

	if len(args) < ocallSlots(sysno) {
		return fail(kernel.ErrInval)
	}
	switch sysno {
	case sysPageIn: // collaborative demand paging (§6.2)
		return 0, a.servePageIn(args[0].val)
	case sysBatch: // exitless batch flush (§10)
		return a.serveBatch(args[0].val)
	case 0: // read
		buf, err := a.stageBuf(args[1].stage, args[2].val)
		if err != nil {
			return fail(err)
		}
		n, err := k.Read(p, int(args[0].val), buf)
		if err != nil {
			return fail(err)
		}
		if err := a.writeStage(args[1].stage, buf[:n]); err != nil {
			return fail(err)
		}
		return okv(uint64(n))
	case 1: // write
		buf, err := a.readStage(args[1].stage, args[2].val)
		if err != nil {
			return fail(err)
		}
		n, err := k.Write(p, int(args[0].val), buf)
		if err != nil {
			return fail(err)
		}
		return okv(uint64(n))
	case 2: // open
		path, ok := stagePath(0)
		if !ok {
			return fail(kernel.ErrInval)
		}
		fd, err := k.Open(p, path, int(args[1].val), uint32(args[2].val))
		if err != nil {
			return fail(err)
		}
		return okv(uint64(fd))
	case 3: // close
		if err := k.Close(p, int(args[0].val)); err != nil {
			return fail(err)
		}
		return okv(0)
	case 4, 5: // stat, fstat
		var fi kernel.FileInfo
		var err error
		if sysno == 4 {
			path, ok := stagePath(0)
			if !ok {
				return fail(kernel.ErrInval)
			}
			fi, err = k.Stat(p, path)
		} else {
			fi, err = k.Fstat(p, int(args[0].val))
		}
		if err != nil {
			return fail(err)
		}
		sb, err := a.stageBuf(args[1].stage, args[1].length)
		if err != nil {
			return fail(err)
		}
		clear(sb)
		if len(sb) >= 24 {
			binary.LittleEndian.PutUint64(sb[0:], uint64(fi.Size))
			binary.LittleEndian.PutUint32(sb[8:], fi.Mode)
			if fi.Dir {
				sb[12] = 1
			}
			binary.LittleEndian.PutUint32(sb[16:], uint32(fi.Nlink))
		}
		if err := a.writeStage(args[1].stage, sb); err != nil {
			return fail(err)
		}
		return okv(0)
	case 8: // lseek
		off, err := k.Lseek(p, int(args[0].val), int64(args[1].val), int(args[2].val))
		if err != nil {
			return fail(err)
		}
		return okv(uint64(off))
	case 9: // mmap
		addr, err := k.Mmap(p, args[1].val, args[2].val)
		if err != nil {
			return fail(err)
		}
		return okv(addr)
	case 10: // mprotect
		if err := k.Mprotect(p, args[0].val, args[1].val, args[2].val); err != nil {
			return fail(err)
		}
		return okv(0)
	case 11: // munmap
		if err := k.Munmap(p, args[0].val); err != nil {
			return fail(err)
		}
		return okv(0)
	case 17: // pread64
		buf, err := a.stageBuf(args[1].stage, args[2].val)
		if err != nil {
			return fail(err)
		}
		n, err := k.Pread(p, int(args[0].val), buf, int64(args[3].val))
		if err != nil {
			return fail(err)
		}
		if err := a.writeStage(args[1].stage, buf[:n]); err != nil {
			return fail(err)
		}
		return okv(uint64(n))
	case 18: // pwrite64
		buf, err := a.readStage(args[1].stage, args[2].val)
		if err != nil {
			return fail(err)
		}
		n, err := k.Pwrite(p, int(args[0].val), buf, int64(args[3].val))
		if err != nil {
			return fail(err)
		}
		return okv(uint64(n))
	case 24: // sched_yield
		k.SchedYield(p)
		return okv(0)
	case 39: // getpid
		return okv(uint64(k.Getpid(p)))
	case 41: // socket
		fd, err := k.Socket(p, int(args[0].val), int(args[1].val))
		if err != nil {
			return fail(err)
		}
		return okv(uint64(fd))
	case 42: // connect (port in the staged sockaddr's first 8 bytes)
		sa, err := a.readStage(args[1].stage, args[1].length)
		if err != nil || len(sa) < 8 {
			return fail(kernel.ErrInval)
		}
		port := int(binary.LittleEndian.Uint64(sa))
		if err := k.Connect(p, int(args[0].val), port); err != nil {
			return fail(err)
		}
		return okv(0)
	case 43: // accept
		fd, err := k.Accept(p, int(args[0].val))
		if err != nil {
			return fail(err)
		}
		return okv(uint64(fd))
	case 44: // sendto
		buf, err := a.readStage(args[1].stage, args[2].val)
		if err != nil {
			return fail(err)
		}
		n, err := k.Sendto(p, int(args[0].val), buf)
		if err != nil {
			return fail(err)
		}
		return okv(uint64(n))
	case 45: // recvfrom
		buf, err := a.stageBuf(args[1].stage, args[2].val)
		if err != nil {
			return fail(err)
		}
		n, err := k.Recvfrom(p, int(args[0].val), buf)
		if err != nil {
			return fail(err)
		}
		if err := a.writeStage(args[1].stage, buf[:n]); err != nil {
			return fail(err)
		}
		return okv(uint64(n))
	case 49: // bind (port in the staged sockaddr)
		sa, err := a.readStage(args[1].stage, args[1].length)
		if err != nil || len(sa) < 8 {
			return fail(kernel.ErrInval)
		}
		port := int(binary.LittleEndian.Uint64(sa))
		if err := k.Bind(p, int(args[0].val), port); err != nil {
			return fail(err)
		}
		return okv(0)
	case 50: // listen
		if err := k.Listen(p, int(args[0].val), int(args[1].val)); err != nil {
			return fail(err)
		}
		return okv(0)
	case 76: // truncate
		path, ok := stagePath(0)
		if !ok {
			return fail(kernel.ErrInval)
		}
		if err := k.Truncate(p, path, int64(args[1].val)); err != nil {
			return fail(err)
		}
		return okv(0)
	case 77: // ftruncate
		if err := k.Ftruncate(p, int(args[0].val), int64(args[1].val)); err != nil {
			return fail(err)
		}
		return okv(0)
	case 82: // rename
		oldp, ok1 := stagePath(0)
		newp, ok2 := stagePath(1)
		if !ok1 || !ok2 {
			return fail(kernel.ErrInval)
		}
		if err := k.Rename(p, oldp, newp); err != nil {
			return fail(err)
		}
		return okv(0)
	case 83: // mkdir
		path, ok := stagePath(0)
		if !ok {
			return fail(kernel.ErrInval)
		}
		if err := k.Mkdir(p, path, uint32(args[1].val)); err != nil {
			return fail(err)
		}
		return okv(0)
	case 87: // unlink
		path, ok := stagePath(0)
		if !ok {
			return fail(kernel.ErrInval)
		}
		if err := k.Unlink(p, path); err != nil {
			return fail(err)
		}
		return okv(0)
	case 96: // gettimeofday
		ns := k.Gettime(p)
		var tv [16]byte
		binary.LittleEndian.PutUint64(tv[0:], ns/1_000_000_000)
		binary.LittleEndian.PutUint64(tv[8:], (ns%1_000_000_000)/1000)
		if err := a.writeStage(args[0].stage, tv[:]); err != nil {
			return fail(err)
		}
		return okv(0)
	}
	return ^uint64(0), 38 // ENOSYS
}

package kernel

import (
	"strconv"

	"veil/internal/obs"
	"veil/internal/snp"
)

// SysNo is a syscall number (Linux x86_64 numbering for the implemented
// subset, so audit rulesets read like the paper's auditctl configuration).
type SysNo int

// Implemented syscall numbers.
const (
	SysRead       SysNo = 0
	SysWrite      SysNo = 1
	SysOpen       SysNo = 2
	SysClose      SysNo = 3
	SysStat       SysNo = 4
	SysFstat      SysNo = 5
	SysLseek      SysNo = 8
	SysMmap       SysNo = 9
	SysMprotect   SysNo = 10
	SysMunmap     SysNo = 11
	SysBrk        SysNo = 12
	SysIoctl      SysNo = 16
	SysPread      SysNo = 17
	SysPwrite     SysNo = 18
	SysReadv      SysNo = 19
	SysWritev     SysNo = 20
	SysPipe       SysNo = 22
	SysSchedYield SysNo = 24
	SysDup        SysNo = 32
	SysDup2       SysNo = 33
	SysNanosleep  SysNo = 35
	SysGetpid     SysNo = 39
	SysSendfile   SysNo = 40
	SysSocket     SysNo = 41
	SysConnect    SysNo = 42
	SysAccept     SysNo = 43
	SysSendto     SysNo = 44
	SysRecvfrom   SysNo = 45
	SysSendmsg    SysNo = 46
	SysRecvmsg    SysNo = 47
	SysShutdown   SysNo = 48
	SysBind       SysNo = 49
	SysListen     SysNo = 50
	SysSocketpair SysNo = 53
	SysClone      SysNo = 56
	SysFork       SysNo = 57
	SysVfork      SysNo = 58
	SysExecve     SysNo = 59
	SysExit       SysNo = 60
	SysUname      SysNo = 63
	SysFcntl      SysNo = 72
	SysTruncate   SysNo = 76
	SysFtruncate  SysNo = 77
	SysGetdents   SysNo = 78
	SysGetcwd     SysNo = 79
	SysRename     SysNo = 82
	SysMkdir      SysNo = 83
	SysRmdir      SysNo = 84
	SysCreat      SysNo = 85
	SysLink       SysNo = 86
	SysUnlink     SysNo = 87
	SysSymlink    SysNo = 88
	SysChmod      SysNo = 90
	SysFchmod     SysNo = 91
	SysGettime    SysNo = 96
	SysGetuid     SysNo = 102
	SysSetuid     SysNo = 105
	SysSetreuid   SysNo = 113
	SysSetresuid  SysNo = 117
	SysMknod      SysNo = 133
	SysOpenat     SysNo = 257
	SysMkdirat    SysNo = 258
	SysMknodat    SysNo = 259
	SysUnlinkat   SysNo = 263
	SysSplice     SysNo = 275
	SysAccept4    SysNo = 288
	SysDup3       SysNo = 292
	SysPipe2      SysNo = 293

	// numSysNo bounds the implemented numbers: the per-syscall tables are
	// arrays of this length, indexed by number.
	numSysNo = SysPipe2 + 1
)

// sysNames is indexed by syscall number; "" marks a number with no name.
var sysNames = [numSysNo]string{
	SysRead: "read", SysWrite: "write", SysOpen: "open", SysClose: "close",
	SysStat: "stat", SysFstat: "fstat", SysLseek: "lseek", SysMmap: "mmap",
	SysMprotect: "mprotect", SysMunmap: "munmap", SysBrk: "brk",
	SysIoctl: "ioctl", SysPread: "pread64", SysPwrite: "pwrite64",
	SysReadv: "readv", SysWritev: "writev", SysPipe: "pipe",
	SysSchedYield: "sched_yield", SysDup: "dup", SysDup2: "dup2",
	SysNanosleep: "nanosleep", SysGetpid: "getpid", SysSendfile: "sendfile",
	SysSocket: "socket", SysConnect: "connect", SysAccept: "accept",
	SysSendto: "sendto", SysRecvfrom: "recvfrom", SysSendmsg: "sendmsg",
	SysRecvmsg: "recvmsg", SysShutdown: "shutdown", SysBind: "bind",
	SysListen: "listen", SysSocketpair: "socketpair", SysClone: "clone",
	SysFork: "fork", SysVfork: "vfork", SysExecve: "execve", SysExit: "exit",
	SysUname: "uname", SysFcntl: "fcntl", SysTruncate: "truncate",
	SysFtruncate: "ftruncate", SysGetdents: "getdents", SysGetcwd: "getcwd",
	SysRename: "rename", SysMkdir: "mkdir", SysRmdir: "rmdir",
	SysCreat: "creat", SysLink: "link", SysUnlink: "unlink",
	SysSymlink: "symlink", SysChmod: "chmod", SysFchmod: "fchmod",
	SysGettime: "gettimeofday", SysGetuid: "getuid", SysSetuid: "setuid",
	SysSetreuid: "setreuid", SysSetresuid: "setresuid", SysMknod: "mknod",
	SysOpenat: "openat", SysMkdirat: "mkdirat", SysMknodat: "mknodat",
	SysUnlinkat: "unlinkat", SysSplice: "splice", SysAccept4: "accept4",
	SysDup3: "dup3", SysPipe2: "pipe2",
}

// Name returns the syscall's Linux name, or sys_N for a number without one.
func (n SysNo) Name() string {
	if n >= 0 && n < numSysNo && sysNames[n] != "" {
		return sysNames[n]
	}
	return "sys_" + strconv.Itoa(int(n))
}

// IoctlHandler services ioctl requests for a named device node (the Veil
// enclave module registers one for /dev/veil-enclave, §7).
type IoctlHandler func(p *Process, req uint64, arg []byte) (uint64, error)

// RegisterDevice installs an ioctl handler for a /dev path, creating the
// node.
func (k *Kernel) RegisterDevice(path string, h IoctlHandler) error {
	if k.devices == nil {
		k.devices = make(map[string]IoctlHandler)
	}
	if _, err := k.vfs.Create(path, 0o600, false); err != nil {
		return err
	}
	k.devices[path] = h
	return nil
}

// noDetail is the detail of a syscall whose record carries no fields.
func noDetail(b []byte) []byte { return b }

// sysFrame is one in-flight syscall: the causal span it opened, the
// syscall number and its start cycle, consumed by sysret.
type sysFrame struct {
	ref   obs.SpanRef
	n     SysNo
	start uint64
}

// enter is the common syscall prologue: entry cost, trace, causal span
// open, and — if the syscall matches the audit ruleset — record emission
// *before* the event runs (execute-ahead, §6.3). detail appends the
// record's syscall fields and runs only when the syscall is audited.
// Every handler pairs it with `defer k.sysret()`, which records the
// syscall span and closes it; the pairing holds on the audit-refusal path
// too, because the handler's defer still runs.
func (k *Kernel) enter(p *Process, n SysNo, detail func(b []byte) []byte) error {
	start := k.m.Clock().Cycles()
	k.m.Clock().Charge(snp.CostSyscall, snp.CyclesSyscall)
	k.chargeBase(n)
	ref := k.m.ObserveSyscallEnter(k.cfg.VMPL, uint64(n))
	k.sysStack = append(k.sysStack, sysFrame{ref: ref, n: n, start: start})
	if k.audit != nil && k.audit.Matches(n) {
		return k.audit.emitFor(p, n, detail)
	}
	return nil
}

// sysret is the common syscall epilogue, deferred by every handler that
// called enter: it pops the frame and records the syscall's causal span,
// with Dur covering prologue through return.
func (k *Kernel) sysret() {
	if len(k.sysStack) == 0 {
		return
	}
	fr := k.sysStack[len(k.sysStack)-1]
	k.sysStack = k.sysStack[:len(k.sysStack)-1]
	k.m.ObserveSyscallExit(k.cfg.VMPL, uint64(fr.n), fr.start, fr.ref)
}

// chargeCopy accounts a user↔kernel data copy of n bytes.
func (k *Kernel) chargeCopy(n int) {
	if n <= 0 {
		return
	}
	k.m.Clock().Charge(snp.CostPageCopy, uint64(n)*snp.CyclesPageCopy4K/snp.PageSize+1)
}

// --- file syscalls ---

// Open implements open(2).
func (k *Kernel) Open(p *Process, path string, flags int, mode uint32) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysOpen, func(b []byte) []byte { return recBuf(b).quote("path=", path).hex(" flags=", int64(flags)) }); err != nil {
		return -1, err
	}
	return k.openNoAudit(p, path, flags, mode)
}

// Openat implements openat(2) relative to the root (the model keeps a
// single namespace; dirfd is accepted for ruleset compatibility).
func (k *Kernel) Openat(p *Process, dirfd int, path string, flags int, mode uint32) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysOpenat, func(b []byte) []byte { return recBuf(b).dec("dirfd=", dirfd).quote(" path=", path) }); err != nil {
		return -1, err
	}
	return k.openNoAudit(p, path, flags, mode)
}

// openNoAudit is open(2)'s body under open, openat and creat, each of
// which has emitted its own audit record.
func (k *Kernel) openNoAudit(p *Process, path string, flags int, mode uint32) (int, error) {
	if err := p.fdRoom(1); err != nil {
		return -1, err
	}
	var ino *Inode
	var err error
	if flags&OCreat != 0 {
		ino, err = k.vfs.Create(path, mode, flags&OExcl != 0)
	} else {
		ino, err = k.vfs.Lookup(path)
	}
	if err != nil {
		return -1, err
	}
	if ino.Dir && flags&0x3 != ORdonly {
		return -1, ErrIsDir
	}
	if flags&OTrunc != 0 && !ino.Dir {
		if err := ino.Truncate(0); err != nil {
			return -1, err
		}
	}
	f := k.newFD()
	f.Path, f.Flags, f.ino = path, flags, ino
	if flags&OAppend != 0 {
		f.off = ino.Size()
	}
	return p.installFD(f), nil
}

// Creat implements creat(2).
func (k *Kernel) Creat(p *Process, path string, mode uint32) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysCreat, func(b []byte) []byte { return recBuf(b).quote("path=", path) }); err != nil {
		return -1, err
	}
	return k.openNoAudit(p, path, OCreat|OTrunc|OWronly, mode)
}

// Close implements close(2).
func (k *Kernel) Close(p *Process, fd int) error {
	defer k.sysret()
	if err := k.enter(p, SysClose, func(b []byte) []byte { return recBuf(b).dec("fd=", fd) }); err != nil {
		return err
	}
	if _, ok := p.lookupFD(fd); !ok {
		return ErrBadFD
	}
	p.dropFD(fd)
	return nil
}

// Read implements read(2).
func (k *Kernel) Read(p *Process, fd int, buf []byte) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysRead, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).dec(" len=", len(buf)) }); err != nil {
		return -1, err
	}
	return k.readNoAudit(p, fd, buf)
}

func (k *Kernel) readNoAudit(p *Process, fd int, buf []byte) (int, error) {
	f, ok := p.lookupFD(fd)
	if !ok {
		return -1, ErrBadFD
	}
	switch {
	case f.pipe != nil:
		if !f.pipe.readSide {
			return -1, ErrBadFD
		}
		if f.pipe.q.len() == 0 {
			if f.pipe.peer.closed {
				return 0, nil
			}
			return -1, ErrWouldBlock
		}
		n := f.pipe.q.read(buf)
		k.chargeCopy(n)
		return n, nil
	case f.sock != nil:
		n, err := f.sock.recv(buf)
		k.chargeCopy(n)
		return n, err
	case f.ino != nil:
		if !f.readable() {
			return -1, ErrBadFD
		}
		n := f.ino.ReadAt(buf, f.off)
		f.off += int64(n)
		k.chargeCopy(n)
		return n, nil
	}
	return -1, ErrBadFD
}

// Write implements write(2).
func (k *Kernel) Write(p *Process, fd int, buf []byte) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysWrite, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).dec(" len=", len(buf)) }); err != nil {
		return -1, err
	}
	return k.writeNoAudit(p, fd, buf)
}

func (k *Kernel) writeNoAudit(p *Process, fd int, buf []byte) (int, error) {
	f, ok := p.lookupFD(fd)
	if !ok {
		return -1, ErrBadFD
	}
	switch {
	case f.pipe != nil:
		if f.pipe.readSide {
			return -1, ErrBadFD
		}
		if f.pipe.peer.closed {
			return -1, ErrClosed
		}
		n := f.pipe.q.write(buf)
		k.chargeCopy(n)
		return n, nil
	case f.sock != nil:
		n, err := f.sock.send(buf)
		k.chargeCopy(n)
		return n, err
	case f.ino != nil:
		if !f.writable() {
			return -1, ErrBadFD
		}
		if f.Flags&OAppend != 0 {
			f.off = f.ino.Size()
		}
		n, err := f.ino.WriteAt(buf, f.off)
		if err != nil {
			return -1, err
		}
		f.off += int64(n)
		k.chargeCopy(n)
		return n, nil
	}
	return -1, ErrBadFD
}

// Pread implements pread64(2).
func (k *Kernel) Pread(p *Process, fd int, buf []byte, off int64) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysPread, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).dec(" len=", len(buf)).dec64(" off=", off) }); err != nil {
		return -1, err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.ino == nil || !f.readable() {
		return -1, ErrBadFD
	}
	n := f.ino.ReadAt(buf, off)
	k.chargeCopy(n)
	return n, nil
}

// Pwrite implements pwrite64(2).
func (k *Kernel) Pwrite(p *Process, fd int, buf []byte, off int64) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysPwrite, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).dec(" len=", len(buf)).dec64(" off=", off) }); err != nil {
		return -1, err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.ino == nil || !f.writable() {
		return -1, ErrBadFD
	}
	n, err := f.ino.WriteAt(buf, off)
	if err != nil {
		return -1, err
	}
	k.chargeCopy(n)
	return n, nil
}

// Lseek implements lseek(2).
func (k *Kernel) Lseek(p *Process, fd int, off int64, whence int) (int64, error) {
	defer k.sysret()
	if err := k.enter(p, SysLseek, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).dec64(" off=", off).dec(" whence=", whence) }); err != nil {
		return -1, err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.ino == nil {
		return -1, ErrBadFD
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = f.off
	case SeekEnd:
		base = f.ino.Size()
	default:
		return -1, ErrInval
	}
	if base+off < 0 {
		return -1, ErrInval
	}
	f.off = base + off
	return f.off, nil
}

// FileInfo is the stat result.
type FileInfo struct {
	Size  int64
	Mode  uint32
	Dir   bool
	Nlink int
}

// Stat implements stat(2).
func (k *Kernel) Stat(p *Process, path string) (FileInfo, error) {
	defer k.sysret()
	if err := k.enter(p, SysStat, func(b []byte) []byte { return recBuf(b).quote("path=", path) }); err != nil {
		return FileInfo{}, err
	}
	ino, err := k.vfs.Lookup(path)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Size: ino.Size(), Mode: ino.Mode, Dir: ino.Dir, Nlink: ino.Nlink}, nil
}

// Fstat implements fstat(2).
func (k *Kernel) Fstat(p *Process, fd int) (FileInfo, error) {
	defer k.sysret()
	if err := k.enter(p, SysFstat, func(b []byte) []byte { return recBuf(b).dec("fd=", fd) }); err != nil {
		return FileInfo{}, err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.ino == nil {
		return FileInfo{}, ErrBadFD
	}
	return FileInfo{Size: f.ino.Size(), Mode: f.ino.Mode, Dir: f.ino.Dir, Nlink: f.ino.Nlink}, nil
}

// Truncate implements truncate(2).
func (k *Kernel) Truncate(p *Process, path string, size int64) error {
	defer k.sysret()
	if err := k.enter(p, SysTruncate, func(b []byte) []byte { return recBuf(b).quote("path=", path).dec64(" size=", size) }); err != nil {
		return err
	}
	return k.vfs.Truncate(path, size)
}

// Ftruncate implements ftruncate(2).
func (k *Kernel) Ftruncate(p *Process, fd int, size int64) error {
	defer k.sysret()
	if err := k.enter(p, SysFtruncate, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).dec64(" size=", size) }); err != nil {
		return err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.ino == nil {
		return ErrBadFD
	}
	return f.ino.Truncate(size)
}

// Unlink implements unlink(2).
func (k *Kernel) Unlink(p *Process, path string) error {
	defer k.sysret()
	if err := k.enter(p, SysUnlink, func(b []byte) []byte { return recBuf(b).quote("path=", path) }); err != nil {
		return err
	}
	return k.vfs.Remove(path)
}

// Unlinkat implements unlinkat(2) (single-namespace model).
func (k *Kernel) Unlinkat(p *Process, dirfd int, path string) error {
	defer k.sysret()
	if err := k.enter(p, SysUnlinkat, func(b []byte) []byte { return recBuf(b).dec("dirfd=", dirfd).quote(" path=", path) }); err != nil {
		return err
	}
	return k.vfs.Remove(path)
}

// Rename implements rename(2).
func (k *Kernel) Rename(p *Process, oldp, newp string) error {
	defer k.sysret()
	if err := k.enter(p, SysRename, func(b []byte) []byte { return recBuf(b).quote("old=", oldp).quote(" new=", newp) }); err != nil {
		return err
	}
	return k.vfs.Rename(oldp, newp)
}

// Mkdir implements mkdir(2).
func (k *Kernel) Mkdir(p *Process, path string, mode uint32) error {
	defer k.sysret()
	if err := k.enter(p, SysMkdir, func(b []byte) []byte { return recBuf(b).quote("path=", path) }); err != nil {
		return err
	}
	return k.vfs.Mkdir(path, mode)
}

// Rmdir implements rmdir(2).
func (k *Kernel) Rmdir(p *Process, path string) error {
	defer k.sysret()
	if err := k.enter(p, SysRmdir, func(b []byte) []byte { return recBuf(b).quote("path=", path) }); err != nil {
		return err
	}
	ino, err := k.vfs.Lookup(path)
	if err != nil {
		return err
	}
	if !ino.Dir {
		return ErrNotDir
	}
	return k.vfs.Remove(path)
}

// Link implements link(2).
func (k *Kernel) Link(p *Process, oldp, newp string) error {
	defer k.sysret()
	if err := k.enter(p, SysLink, func(b []byte) []byte { return recBuf(b).quote("old=", oldp).quote(" new=", newp) }); err != nil {
		return err
	}
	return k.vfs.Link(oldp, newp)
}

// Symlink implements symlink(2).
func (k *Kernel) Symlink(p *Process, target, newp string) error {
	defer k.sysret()
	if err := k.enter(p, SysSymlink, func(b []byte) []byte { return recBuf(b).quote("target=", target).quote(" new=", newp) }); err != nil {
		return err
	}
	return k.vfs.Symlink(target, newp)
}

// Chmod implements chmod(2).
func (k *Kernel) Chmod(p *Process, path string, mode uint32) error {
	defer k.sysret()
	if err := k.enter(p, SysChmod, func(b []byte) []byte { return recBuf(b).quote("path=", path).oct(" mode=", mode) }); err != nil {
		return err
	}
	ino, err := k.vfs.Lookup(path)
	if err != nil {
		return err
	}
	ino.Mode = mode
	return nil
}

// Fchmod implements fchmod(2).
func (k *Kernel) Fchmod(p *Process, fd int, mode uint32) error {
	defer k.sysret()
	if err := k.enter(p, SysFchmod, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).oct(" mode=", mode) }); err != nil {
		return err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.ino == nil {
		return ErrBadFD
	}
	f.ino.Mode = mode
	return nil
}

// Mknod implements mknod(2) (regular files only in the model).
func (k *Kernel) Mknod(p *Process, path string, mode uint32) error {
	defer k.sysret()
	if err := k.enter(p, SysMknod, func(b []byte) []byte { return recBuf(b).quote("path=", path) }); err != nil {
		return err
	}
	_, err := k.vfs.Create(path, mode, true)
	return err
}

// Getdents implements getdents(2), returning child names.
func (k *Kernel) Getdents(p *Process, fd int) ([]string, error) {
	defer k.sysret()
	if err := k.enter(p, SysGetdents, func(b []byte) []byte { return recBuf(b).dec("fd=", fd) }); err != nil {
		return nil, err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.ino == nil || !f.ino.Dir {
		return nil, ErrBadFD
	}
	return k.vfs.ReadDir(f.Path)
}

// Dup implements dup(2).
func (k *Kernel) Dup(p *Process, fd int) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysDup, func(b []byte) []byte { return recBuf(b).dec("fd=", fd) }); err != nil {
		return -1, err
	}
	f, ok := p.lookupFD(fd)
	if !ok {
		return -1, ErrBadFD
	}
	if err := p.fdRoom(1); err != nil {
		return -1, err
	}
	return p.installFD(f), nil
}

// Dup2 implements dup2(2).
func (k *Kernel) Dup2(p *Process, oldfd, newfd int) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysDup2, func(b []byte) []byte { return recBuf(b).dec("old=", oldfd).dec(" new=", newfd) }); err != nil {
		return -1, err
	}
	if !validNewFD(newfd) {
		return -1, ErrBadFD
	}
	f, ok := p.lookupFD(oldfd)
	if !ok {
		return -1, ErrBadFD
	}
	p.placeFD(newfd, f)
	return newfd, nil
}

// validNewFD reports whether dup2 or dup3 may install a descriptor at
// newfd: like Linux, they refuse a negative number or one at or past
// MaxFD with EBADF.
func validNewFD(newfd int) bool { return newfd >= 0 && newfd < MaxFD }

// Dup3 implements dup3(2).
func (k *Kernel) Dup3(p *Process, oldfd, newfd, flags int) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysDup3, func(b []byte) []byte { return recBuf(b).dec("old=", oldfd).dec(" new=", newfd) }); err != nil {
		return -1, err
	}
	if oldfd == newfd {
		return -1, ErrInval
	}
	if !validNewFD(newfd) {
		return -1, ErrBadFD
	}
	f, ok := p.lookupFD(oldfd)
	if !ok {
		return -1, ErrBadFD
	}
	p.placeFD(newfd, f)
	return newfd, nil
}

// Pipe2 implements pipe2(2), returning (readFD, writeFD).
func (k *Kernel) Pipe2(p *Process, flags int) (int, int, error) {
	defer k.sysret()
	if err := k.enter(p, SysPipe2, func(b []byte) []byte { return append(b, "pipe2"...) }); err != nil {
		return -1, -1, err
	}
	if err := p.fdRoom(2); err != nil {
		return -1, -1, err
	}
	q := &byteQueue{}
	r := &pipeEnd{q: q, readSide: true}
	w := &pipeEnd{q: q}
	r.peer, w.peer = w, r
	rf, wf := k.newFD(), k.newFD()
	rf.Path, rf.pipe = "pipe:[r]", r
	wf.Path, wf.pipe, wf.Flags = "pipe:[w]", w, OWronly
	return p.installFD(rf), p.installFD(wf), nil
}

// Sendfile implements sendfile(2) (file → socket/file).
func (k *Kernel) Sendfile(p *Process, outfd, infd int, count int) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysSendfile, func(b []byte) []byte { return recBuf(b).dec("out=", outfd).dec(" in=", infd).dec(" n=", count) }); err != nil {
		return -1, err
	}
	in, ok := p.lookupFD(infd)
	if !ok || in.ino == nil {
		return -1, ErrBadFD
	}
	// Serve straight out of the inode's backing store: the VFS lives in
	// kernel memory, so the only data movement left is the write into the
	// destination (the charge still models the user-visible copy).
	var data []byte
	if in.off >= 0 && in.off < in.ino.Size() {
		data = in.ino.Data[in.off:]
		if len(data) > count {
			data = data[:count]
		}
	}
	in.off += int64(len(data))
	k.chargeCopy(len(data))
	return k.writeNoAudit(p, outfd, data)
}

// Splice implements a simplified splice(2) between two FDs.
func (k *Kernel) Splice(p *Process, infd, outfd int, count int) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysSplice, func(b []byte) []byte { return recBuf(b).dec("in=", infd).dec(" out=", outfd).dec(" n=", count) }); err != nil {
		return -1, err
	}
	if in, ok := p.lookupFD(infd); ok && in.ino != nil {
		// File source: splice the inode's backing bytes to the sink with no
		// staging buffer, mirroring readNoAudit's checks and charge.
		if !in.readable() {
			return -1, ErrBadFD
		}
		var data []byte
		if in.off >= 0 && in.off < in.ino.Size() {
			data = in.ino.Data[in.off:]
			if len(data) > count {
				data = data[:count]
			}
		}
		in.off += int64(len(data))
		k.chargeCopy(len(data))
		if len(data) == 0 {
			return 0, nil
		}
		return k.writeNoAudit(p, outfd, data)
	}
	if cap(k.spliceBuf) < count {
		k.spliceBuf = make([]byte, count)
	}
	buf := k.spliceBuf[:count]
	n, err := k.readNoAudit(p, infd, buf)
	if err != nil || n == 0 {
		return n, err
	}
	return k.writeNoAudit(p, outfd, buf[:n])
}

// --- memory syscalls ---

// Mmap implements anonymous mmap(2): it allocates guest frames and maps
// them into the process page tables with the requested protection.
func (k *Kernel) Mmap(p *Process, length uint64, prot uint64) (uint64, error) {
	defer k.sysret()
	if err := k.enter(p, SysMmap, func(b []byte) []byte { return recBuf(b).udec("len=", length).uhex(" prot=", prot) }); err != nil {
		return 0, err
	}
	if length == 0 {
		return 0, ErrInval
	}
	virt := p.mmapNext
	rounded := (length + snp.PageSize - 1) &^ uint64(snp.PageSize-1)
	if err := p.MapRegion(virt, rounded, prot); err != nil {
		return 0, err
	}
	p.mmapNext += rounded + snp.PageSize // guard gap
	return virt, nil
}

// Munmap implements munmap(2) for a whole region created by Mmap.
func (k *Kernel) Munmap(p *Process, virt uint64) error {
	defer k.sysret()
	if err := k.enter(p, SysMunmap, func(b []byte) []byte { return recBuf(b).uhex("addr=", virt) }); err != nil {
		return err
	}
	if p.Enclave != nil && p.Enclave.Covers(virt, 1) {
		// The OS may not change enclave layout post-installation (§6.2).
		k.m.ObserveDenied(snp.DeniedPinned, virt)
		return ErrInval
	}
	return p.UnmapRegion(virt)
}

// Mprotect implements mprotect(2). For processes hosting an enclave, the
// OS is only allowed to change non-enclave regions, and those changes are
// synchronized into the protected enclave page tables by VeilS-Enc (§6.2).
func (k *Kernel) Mprotect(p *Process, virt, length uint64, prot uint64) error {
	defer k.sysret()
	if err := k.enter(p, SysMprotect, func(b []byte) []byte { return recBuf(b).uhex("addr=", virt).udec(" len=", length).uhex(" prot=", prot) }); err != nil {
		return err
	}
	if p.Enclave != nil && p.Enclave.Covers(virt, length) {
		// Enclave-covered layout is pinned post-installation (§6.2).
		k.m.ObserveDenied(snp.DeniedPinned, virt)
		return ErrInval
	}
	as, err := p.AddressSpace()
	if err != nil {
		return err
	}
	length = (length + snp.PageSize - 1) &^ uint64(snp.PageSize-1)
	for off := uint64(0); off < length; off += snp.PageSize {
		if err := as.Protect(virt+off, protFlags(prot)); err != nil {
			return err
		}
	}
	if p.Enclave != nil {
		return p.Enclave.SyncPermissions(virt, length, prot)
	}
	return nil
}

// --- socket syscalls ---

// Socket implements socket(2).
func (k *Kernel) Socket(p *Process, domain, typ int) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysSocket, func(b []byte) []byte { return recBuf(b).dec("domain=", domain).dec(" type=", typ) }); err != nil {
		return -1, err
	}
	if domain != AFInet && domain != AFUnix {
		return -1, ErrInval
	}
	if err := p.fdRoom(1); err != nil {
		return -1, err
	}
	return p.installFD(k.socketFD("socket:", domain, typ, nil)), nil
}

// Bind implements bind(2).
func (k *Kernel) Bind(p *Process, fd, port int) error {
	defer k.sysret()
	if err := k.enter(p, SysBind, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).dec(" port=", port) }); err != nil {
		return err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.sock == nil {
		return ErrBadFD
	}
	return k.net().bind(f.sock, port)
}

// Listen implements listen(2).
func (k *Kernel) Listen(p *Process, fd, backlog int) error {
	defer k.sysret()
	if err := k.enter(p, SysListen, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).dec(" backlog=", backlog) }); err != nil {
		return err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.sock == nil {
		return ErrBadFD
	}
	return k.net().listen(f.sock)
}

// Connect implements connect(2) to a loopback port.
func (k *Kernel) Connect(p *Process, fd, port int) error {
	defer k.sysret()
	if err := k.enter(p, SysConnect, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).dec(" port=", port) }); err != nil {
		return err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.sock == nil {
		return ErrBadFD
	}
	return k.net().connect(f.sock, port)
}

// Accept implements accept(2)/accept4(2).
func (k *Kernel) Accept(p *Process, fd int) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysAccept, func(b []byte) []byte { return recBuf(b).dec("fd=", fd) }); err != nil {
		return -1, err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.sock == nil {
		return -1, ErrBadFD
	}
	if err := p.fdRoom(1); err != nil {
		return -1, err
	}
	c, err := k.net().accept(f.sock)
	if err != nil {
		return -1, err
	}
	return p.installFD(k.socketFD("socket:accepted", f.sock.Domain, f.sock.Type, c)), nil
}

// Sendto implements send/sendto(2).
func (k *Kernel) Sendto(p *Process, fd int, buf []byte) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysSendto, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).dec(" len=", len(buf)) }); err != nil {
		return -1, err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.sock == nil {
		return -1, ErrBadFD
	}
	n, err := f.sock.send(buf)
	k.chargeCopy(n)
	return n, err
}

// Recvfrom implements recv/recvfrom(2).
func (k *Kernel) Recvfrom(p *Process, fd int, buf []byte) (int, error) {
	defer k.sysret()
	if err := k.enter(p, SysRecvfrom, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).dec(" len=", len(buf)) }); err != nil {
		return -1, err
	}
	f, ok := p.lookupFD(fd)
	if !ok || f.sock == nil {
		return -1, ErrBadFD
	}
	n, err := f.sock.recv(buf)
	k.chargeCopy(n)
	return n, err
}

// Socketpair implements socketpair(2).
func (k *Kernel) Socketpair(p *Process, domain, typ int) (int, int, error) {
	defer k.sysret()
	if err := k.enter(p, SysSocketpair, func(b []byte) []byte { return append(b, "socketpair"...) }); err != nil {
		return -1, -1, err
	}
	if err := p.fdRoom(2); err != nil {
		return -1, -1, err
	}
	ca, cb := k.net().pair()
	return p.installFD(k.socketFD("socket:pair", domain, typ, ca)),
		p.installFD(k.socketFD("socket:pair", domain, typ, cb)), nil
}

// --- process syscalls ---

// Getpid implements getpid(2).
func (k *Kernel) Getpid(p *Process) int {
	defer k.sysret()
	_ = k.enter(p, SysGetpid, noDetail)
	return p.PID
}

// Getuid implements getuid(2).
func (k *Kernel) Getuid(p *Process) int {
	defer k.sysret()
	_ = k.enter(p, SysGetuid, noDetail)
	return p.UID
}

// Setuid implements setuid(2).
func (k *Kernel) Setuid(p *Process, uid int) error {
	defer k.sysret()
	if err := k.enter(p, SysSetuid, func(b []byte) []byte { return recBuf(b).dec("uid=", uid) }); err != nil {
		return err
	}
	p.UID = uid
	return nil
}

// Fork implements fork(2): the child shares no memory but inherits the FD
// table, each descriptor naming the parent's open file.
func (k *Kernel) Fork(p *Process) (*Process, error) {
	defer k.sysret()
	if err := k.enter(p, SysFork, noDetail); err != nil {
		return nil, err
	}
	child := k.newProcess(p.Name)
	for fd, f := range p.fds {
		if f != nil {
			child.placeFD(fd, f)
		}
	}
	child.UID = p.UID
	k.m.Clock().Charge(snp.CostContextSwitch, snp.CyclesContextSwitch)
	return child, nil
}

// Execve implements execve(2) as a process image replacement marker.
func (k *Kernel) Execve(p *Process, path string, argv []string) error {
	defer k.sysret()
	if err := k.enter(p, SysExecve, func(b []byte) []byte { return recBuf(b).quote("path=", path).dec(" argv=", len(argv)) }); err != nil {
		return err
	}
	if _, err := k.vfs.Lookup(path); err != nil {
		return err
	}
	p.Name = path
	return nil
}

// Exit implements exit(2).
func (k *Kernel) Exit(p *Process, code int) error {
	defer k.sysret()
	if err := k.enter(p, SysExit, func(b []byte) []byte { return recBuf(b).dec("code=", code) }); err != nil {
		return err
	}
	p.exited, p.exitCode = true, code
	return p.teardown()
}

// SchedYield implements sched_yield(2) (context-switch cost only).
func (k *Kernel) SchedYield(p *Process) {
	defer k.sysret()
	_ = k.enter(p, SysSchedYield, noDetail)
	k.m.Clock().Charge(snp.CostContextSwitch, snp.CyclesContextSwitch)
}

// Nanosleep charges virtual time.
func (k *Kernel) Nanosleep(p *Process, nanos uint64) {
	defer k.sysret()
	_ = k.enter(p, SysNanosleep, func(b []byte) []byte { return recBuf(b).udec("ns=", nanos) })
	k.m.Clock().Charge(snp.CostCompute, nanos*snp.SimClockHz/1_000_000_000)
}

// Gettime returns the virtual clock in nanoseconds.
func (k *Kernel) Gettime(p *Process) uint64 {
	defer k.sysret()
	_ = k.enter(p, SysGettime, noDetail)
	return uint64(k.m.Clock().Seconds() * 1e9)
}

// Ioctl implements ioctl(2), dispatching to registered device handlers.
func (k *Kernel) Ioctl(p *Process, fd int, req uint64, arg []byte) (uint64, error) {
	defer k.sysret()
	if err := k.enter(p, SysIoctl, func(b []byte) []byte { return recBuf(b).dec("fd=", fd).uhex(" req=", req) }); err != nil {
		return 0, err
	}
	f, ok := p.lookupFD(fd)
	if !ok {
		return 0, ErrBadFD
	}
	h, ok := k.devices[f.Path]
	if !ok {
		return 0, ErrInval
	}
	return h(p, req, arg)
}

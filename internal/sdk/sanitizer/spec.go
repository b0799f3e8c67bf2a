// Package sanitizer is Veil's system-call sanitizer (§7): a declarative
// call and type specification for the syscalls the enclave SDK supports,
// driving a deep-copy marshaller for enclave→application syscall
// redirection and the IAGO checks on values the untrusted OS returns.
//
// The paper derives its grammar from Syzkaller's syscall descriptions and
// refines it with unit tests; this package encodes the same information —
// which arguments are buffers, which direction they flow, and which other
// argument constrains their length — as Go data, exercised by the SDK's
// conformance suite.
package sanitizer

import (
	"errors"
	"fmt"
)

// Dir is a buffer's copy direction across the enclave boundary.
type Dir uint8

const (
	// In buffers are copied out of the enclave before the call.
	In Dir = iota
	// Out buffers are written by the kernel and copied back in.
	Out
	// InOut buffers flow both ways.
	InOut
)

func (d Dir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	}
	return "dir(?)"
}

// Kind classifies one argument.
type Kind uint8

const (
	// Scalar is a plain integer (fd, flags, mode, offset...).
	Scalar Kind = iota
	// Buffer is a pointer argument to a data region; its length comes
	// from LenArg or FixedSize.
	Buffer
	// Path is a NUL-terminated string pointer (always copied in).
	Path
	// IOVec is an iovec array pointer; the next argument is the vector
	// count, and each element's buffer follows Dir.
	IOVec
	// StructPtr is a fixed-size struct pointer (stat buffers, timespecs).
	StructPtr
)

func (k Kind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case Buffer:
		return "buffer"
	case Path:
		return "path"
	case IOVec:
		return "iovec"
	case StructPtr:
		return "struct"
	}
	return "kind(?)"
}

// Ret classifies the return value, deciding which IAGO check applies (§6.2,
// §7: "ensuring all pointers returned by the operating system ... belong to
// memory regions outside the enclave").
type Ret uint8

const (
	// RetScalar is a status or an identifier the enclave does not use to
	// address anything; it is not checked.
	RetScalar Ret = iota
	// RetPointer is an address (mmap, brk): it must lie outside the
	// enclave's virtual range.
	RetPointer
	// RetCount is a byte count of the call's length-constrained Buffer
	// argument (read, write, recvfrom...): it must not exceed the length
	// the enclave asked for.
	RetCount
	// RetFD is a new file descriptor (open, socket, accept, dup...): it
	// must lie in [0, kernel.MaxFD), the numbers a kernel hands out.
	RetFD
	// RetOffset is a file offset (lseek): it must be a non-negative int64.
	RetOffset
)

// ArgSpec describes one argument.
type ArgSpec struct {
	Name string
	Kind Kind
	Dir  Dir
	// LenArg is the index of the argument carrying this buffer's length
	// (the "length constraint relationship" of the type specification);
	// -1 if FixedSize applies or the argument is not a buffer.
	LenArg int
	// FixedSize is the byte size for StructPtr arguments.
	FixedSize int
}

// CallSpec describes one syscall.
type CallSpec struct {
	Num  int
	Name string
	Args []ArgSpec
	Ret  Ret
}

// Errors.
var (
	ErrUnsupported = errors.New("sanitizer: unsupported syscall")
	ErrBadArgs     = errors.New("sanitizer: argument mismatch")
	ErrIago        = errors.New("sanitizer: IAGO check failed")
)

// scalar is a shorthand arg constructor.
func scalar(name string) ArgSpec { return ArgSpec{Name: name, Kind: Scalar, LenArg: -1} }

func bufIn(name string, lenArg int) ArgSpec {
	return ArgSpec{Name: name, Kind: Buffer, Dir: In, LenArg: lenArg}
}

func bufOut(name string, lenArg int) ArgSpec {
	return ArgSpec{Name: name, Kind: Buffer, Dir: Out, LenArg: lenArg}
}

func path(name string) ArgSpec { return ArgSpec{Name: name, Kind: Path, Dir: In, LenArg: -1} }

func structIn(name string, size int) ArgSpec {
	return ArgSpec{Name: name, Kind: StructPtr, Dir: In, LenArg: -1, FixedSize: size}
}

func structOut(name string, size int) ArgSpec {
	return ArgSpec{Name: name, Kind: StructPtr, Dir: Out, LenArg: -1, FixedSize: size}
}

func iovec(name string, d Dir) ArgSpec { return ArgSpec{Name: name, Kind: IOVec, Dir: d, LenArg: -1} }

// Common struct sizes (Linux x86_64 ABI).
const (
	sizeStat     = 144
	sizeTimespec = 16
	sizeTimeval  = 16
	sizeSockaddr = 16
	sizeRlimit   = 16
	sizeRusage   = 144
	sizeSysinfo  = 112
	sizeTms      = 32
	sizeUtsname  = 390
	sizeItimer   = 32
)

// MaxArgs is the most arguments any spec takes (mmap, sendto, recvfrom,
// splice): callers size per-argument buffers by it, and call refuses to
// register a longer spec.
const MaxArgs = 6

// call registers a spec and its compiled plan (init-time helper), growing
// both tables to num.
func call(num int, name string, ret Ret, args ...ArgSpec) {
	if num < len(specs) && specs[num].Name != "" {
		panic(fmt.Sprintf("sanitizer: duplicate spec %d", num))
	}
	if len(args) > MaxArgs {
		panic(fmt.Sprintf("sanitizer: %s takes %d args, more than MaxArgs (%d)", name, len(args), MaxArgs))
	}
	if num >= len(specs) {
		specs = append(specs, make([]CallSpec, num+1-len(specs))...)
		plans = append(plans, make([]*Plan, num+1-len(plans))...)
	}
	specs[num] = CallSpec{Num: num, Name: name, Args: args, Ret: ret}
	plans[num] = compile(&specs[num])
}

// specs is indexed by syscall number; an entry with no Name is a number
// the SDK does not support. It is the one declaration: plans holds the
// same calls compiled, and refusals take their names from here.
var specs []CallSpec

func init() {
	// File I/O.
	call(0, "read", RetCount, scalar("fd"), bufOut("buf", 2), scalar("count"))
	call(1, "write", RetCount, scalar("fd"), bufIn("buf", 2), scalar("count"))
	call(2, "open", RetFD, path("pathname"), scalar("flags"), scalar("mode"))
	call(3, "close", RetScalar, scalar("fd"))
	call(4, "stat", RetScalar, path("pathname"), structOut("statbuf", sizeStat))
	call(5, "fstat", RetScalar, scalar("fd"), structOut("statbuf", sizeStat))
	call(6, "lstat", RetScalar, path("pathname"), structOut("statbuf", sizeStat))
	call(8, "lseek", RetOffset, scalar("fd"), scalar("offset"), scalar("whence"))
	call(17, "pread64", RetCount, scalar("fd"), bufOut("buf", 2), scalar("count"), scalar("offset"))
	call(18, "pwrite64", RetCount, scalar("fd"), bufIn("buf", 2), scalar("count"), scalar("offset"))
	call(19, "readv", RetScalar, scalar("fd"), iovec("iov", Out), scalar("iovcnt"))
	call(20, "writev", RetScalar, scalar("fd"), iovec("iov", In), scalar("iovcnt"))
	call(21, "access", RetScalar, path("pathname"), scalar("mode"))
	call(22, "pipe", RetScalar, structOut("pipefd", 8))
	call(32, "dup", RetFD, scalar("oldfd"))
	call(33, "dup2", RetFD, scalar("oldfd"), scalar("newfd"))
	call(40, "sendfile", RetScalar, scalar("out_fd"), scalar("in_fd"), structOut("offset", 8), scalar("count"))
	call(72, "fcntl", RetScalar, scalar("fd"), scalar("cmd"), scalar("arg"))
	call(74, "fsync", RetScalar, scalar("fd"))
	call(75, "fdatasync", RetScalar, scalar("fd"))
	call(76, "truncate", RetScalar, path("pathname"), scalar("length"))
	call(77, "ftruncate", RetScalar, scalar("fd"), scalar("length"))
	call(78, "getdents", RetCount, scalar("fd"), bufOut("dirp", 2), scalar("count"))
	call(79, "getcwd", RetCount, bufOut("buf", 1), scalar("size"))
	call(80, "chdir", RetScalar, path("pathname"))
	call(82, "rename", RetScalar, path("oldpath"), path("newpath"))
	call(83, "mkdir", RetScalar, path("pathname"), scalar("mode"))
	call(84, "rmdir", RetScalar, path("pathname"))
	call(85, "creat", RetFD, path("pathname"), scalar("mode"))
	call(86, "link", RetScalar, path("oldpath"), path("newpath"))
	call(87, "unlink", RetScalar, path("pathname"))
	call(88, "symlink", RetScalar, path("target"), path("linkpath"))
	call(89, "readlink", RetCount, path("pathname"), bufOut("buf", 2), scalar("bufsiz"))
	call(90, "chmod", RetScalar, path("pathname"), scalar("mode"))
	call(91, "fchmod", RetScalar, scalar("fd"), scalar("mode"))
	call(133, "mknod", RetScalar, path("pathname"), scalar("mode"), scalar("dev"))
	call(257, "openat", RetFD, scalar("dirfd"), path("pathname"), scalar("flags"), scalar("mode"))
	call(258, "mkdirat", RetScalar, scalar("dirfd"), path("pathname"), scalar("mode"))
	call(259, "mknodat", RetScalar, scalar("dirfd"), path("pathname"), scalar("mode"), scalar("dev"))
	call(263, "unlinkat", RetScalar, scalar("dirfd"), path("pathname"), scalar("flags"))
	call(275, "splice", RetScalar, scalar("fd_in"), structOut("off_in", 8), scalar("fd_out"), structOut("off_out", 8), scalar("len"), scalar("flags"))
	call(292, "dup3", RetFD, scalar("oldfd"), scalar("newfd"), scalar("flags"))
	call(293, "pipe2", RetScalar, structOut("pipefd", 8), scalar("flags"))

	// Memory.
	call(9, "mmap", RetPointer, scalar("addr"), scalar("length"), scalar("prot"), scalar("flags"), scalar("fd"), scalar("offset"))
	call(10, "mprotect", RetScalar, scalar("addr"), scalar("length"), scalar("prot"))
	call(11, "munmap", RetScalar, scalar("addr"), scalar("length"))
	call(12, "brk", RetPointer, scalar("addr"))

	// Signals/timers (scalar-shaped subset the SDK accepts and mostly
	// no-ops, like library OSes do).
	call(13, "rt_sigaction", RetScalar, scalar("signum"), structIn("act", 32), structOut("oldact", 32), scalar("sigsetsize"))
	call(14, "rt_sigprocmask", RetScalar, scalar("how"), structIn("set", 8), structOut("oldset", 8), scalar("sigsetsize"))
	call(35, "nanosleep", RetScalar, structIn("req", sizeTimespec), structOut("rem", sizeTimespec))
	call(96, "gettimeofday", RetScalar, structOut("tv", sizeTimeval), structOut("tz", 8))
	call(201, "time", RetScalar, structOut("tloc", 8))
	call(228, "clock_gettime", RetScalar, scalar("clk_id"), structOut("tp", sizeTimespec))

	// Sockets.
	call(16, "ioctl", RetScalar, scalar("fd"), scalar("request"), structOut("argp", 64))
	call(41, "socket", RetFD, scalar("domain"), scalar("type"), scalar("protocol"))
	call(42, "connect", RetScalar, scalar("sockfd"), structIn("addr", sizeSockaddr), scalar("addrlen"))
	call(43, "accept", RetFD, scalar("sockfd"), structOut("addr", sizeSockaddr), structOut("addrlen", 4))
	call(44, "sendto", RetCount, scalar("sockfd"), bufIn("buf", 2), scalar("len"), scalar("flags"), structIn("dest", sizeSockaddr), scalar("addrlen"))
	call(45, "recvfrom", RetCount, scalar("sockfd"), bufOut("buf", 2), scalar("len"), scalar("flags"), structOut("src", sizeSockaddr), structOut("addrlen", 4))
	call(46, "sendmsg", RetScalar, scalar("sockfd"), iovec("msg", In), scalar("flags"))
	call(47, "recvmsg", RetScalar, scalar("sockfd"), iovec("msg", Out), scalar("flags"))
	call(48, "shutdown", RetScalar, scalar("sockfd"), scalar("how"))
	call(49, "bind", RetScalar, scalar("sockfd"), structIn("addr", sizeSockaddr), scalar("addrlen"))
	call(50, "listen", RetScalar, scalar("sockfd"), scalar("backlog"))
	call(51, "getsockname", RetScalar, scalar("sockfd"), structOut("addr", sizeSockaddr), structOut("addrlen", 4))
	call(52, "getpeername", RetScalar, scalar("sockfd"), structOut("addr", sizeSockaddr), structOut("addrlen", 4))
	call(53, "socketpair", RetScalar, scalar("domain"), scalar("type"), scalar("protocol"), structOut("sv", 8))
	call(54, "setsockopt", RetScalar, scalar("sockfd"), scalar("level"), scalar("optname"), bufIn("optval", 4), scalar("optlen"))
	call(55, "getsockopt", RetScalar, scalar("sockfd"), scalar("level"), scalar("optname"), structOut("optval", 64), structOut("optlen", 4))
	call(288, "accept4", RetFD, scalar("sockfd"), structOut("addr", sizeSockaddr), structOut("addrlen", 4), scalar("flags"))

	// Processes and identity.
	call(24, "sched_yield", RetScalar)
	call(39, "getpid", RetScalar)
	call(56, "clone", RetScalar, scalar("flags"), scalar("stack"), scalar("parent_tid"), scalar("child_tid"), scalar("tls"))
	call(57, "fork", RetScalar)
	call(58, "vfork", RetScalar)
	call(59, "execve", RetScalar, path("pathname"), scalar("argv"), scalar("envp"))
	call(60, "exit", RetScalar, scalar("status"))
	call(61, "wait4", RetScalar, scalar("pid"), structOut("wstatus", 4), scalar("options"), structOut("rusage", sizeRusage))
	call(62, "kill", RetScalar, scalar("pid"), scalar("sig"))
	call(63, "uname", RetScalar, structOut("buf", sizeUtsname))
	call(97, "getrlimit", RetScalar, scalar("resource"), structOut("rlim", sizeRlimit))
	call(98, "getrusage", RetScalar, scalar("who"), structOut("usage", sizeRusage))
	call(99, "sysinfo", RetScalar, structOut("info", sizeSysinfo))
	call(100, "times", RetScalar, structOut("buf", sizeTms))
	call(102, "getuid", RetScalar)
	call(104, "getgid", RetScalar)
	call(105, "setuid", RetScalar, scalar("uid"))
	call(106, "setgid", RetScalar, scalar("gid"))
	call(107, "geteuid", RetScalar)
	call(108, "getegid", RetScalar)
	call(110, "getppid", RetScalar)
	call(113, "setreuid", RetScalar, scalar("ruid"), scalar("euid"))
	call(117, "setresuid", RetScalar, scalar("ruid"), scalar("euid"), scalar("suid"))
	call(186, "gettid", RetScalar)
	call(231, "exit_group", RetScalar, scalar("status"))
	call(318, "getrandom", RetCount, bufOut("buf", 1), scalar("buflen"), scalar("flags"))
}

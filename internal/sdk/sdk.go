// Package sdk is Veil's enclave software development kit (§7): the
// musl-libc-style runtime pair that lets a program run unchanged either
// natively on the guest kernel or shielded inside a VeilS-Enc enclave.
//
// The untrusted half (AppRuntime) installs the enclave through the Veil
// kernel module, enters it through the user-mapped GHCB, and serves
// redirected system calls (the OCALL path). The trusted half
// (EnclaveRuntime) provides the in-enclave libc whose every syscall is
// deep-copied across the boundary by the sanitizer specifications and
// IAGO-checked on return.
package sdk

import (
	"errors"

	"veil/internal/kernel"
)

// Program is an enclave-loadable application: it runs against the Libc
// interface, so the same code executes natively and shielded.
type Program interface {
	// Main runs the program and returns its exit code.
	Main(lc Libc, args []string) int
}

// ProgramFunc adapts a function to Program.
type ProgramFunc func(lc Libc, args []string) int

// Main runs f.
func (f ProgramFunc) Main(lc Libc, args []string) int { return f(lc, args) }

// Libc is the syscall surface the SDK offers to programs — the subset of
// POSIX that the paper's workloads exercise (§9.2). Errors are the kernel's
// errno-like sentinel errors on both backends.
type Libc interface {
	Open(path string, flags int, mode uint32) (int, error)
	Close(fd int) error
	Read(fd int, buf []byte) (int, error)
	Write(fd int, buf []byte) (int, error)
	Pread(fd int, buf []byte, off int64) (int, error)
	Pwrite(fd int, buf []byte, off int64) (int, error)
	Lseek(fd int, off int64, whence int) (int64, error)
	Stat(path string) (kernel.FileInfo, error)
	Fstat(fd int) (kernel.FileInfo, error)
	Unlink(path string) error
	Rename(oldp, newp string) error
	Mkdir(path string, mode uint32) error
	Truncate(path string, size int64) error
	Ftruncate(fd int, size int64) error

	Mmap(length uint64, prot uint64) (uint64, error)
	Munmap(addr uint64) error
	Mprotect(addr, length uint64, prot uint64) error

	Socket(domain, typ int) (int, error)
	Bind(fd, port int) error
	Listen(fd, backlog int) error
	Accept(fd int) (int, error)
	Connect(fd, port int) error
	Send(fd int, buf []byte) (int, error)
	Recv(fd int, buf []byte) (int, error)

	Getpid() int
	Yield()
	Print(msg string) error // printf: write(2) to stdout

	// Burn models application CPU work of the given cycle count; it is how
	// workloads charge their compute between syscalls on the virtual clock.
	Burn(cycles uint64)
}

// ErrEnclaveDead is returned once an enclave has been killed (e.g. by an
// unsupported syscall — the SDK's documented behaviour, §7).
var ErrEnclaveDead = errors.New("sdk: enclave terminated")

// ErrArgvTooLong refuses an argv whose serialized length does not fit the
// entry block's argv area (argvMax bytes): Enter refuses to write one, and
// the enclave refuses to read one the untrusted side wrote.
var ErrArgvTooLong = errors.New("sdk: argv too large")

// DirectLibc is the native backend: straight kernel calls from a process,
// no enclave. It is the baseline side of Figs. 4 and 5.
type DirectLibc struct {
	K *kernel.Kernel
	P *kernel.Process
}

var _ Libc = (*DirectLibc)(nil)

// Open implements Libc.
func (d *DirectLibc) Open(path string, flags int, mode uint32) (int, error) {
	return d.K.Open(d.P, path, flags, mode)
}

// Close implements Libc.
func (d *DirectLibc) Close(fd int) error { return d.K.Close(d.P, fd) }

// Read implements Libc.
func (d *DirectLibc) Read(fd int, buf []byte) (int, error) { return d.K.Read(d.P, fd, buf) }

// Write implements Libc.
func (d *DirectLibc) Write(fd int, buf []byte) (int, error) { return d.K.Write(d.P, fd, buf) }

// Pread implements Libc.
func (d *DirectLibc) Pread(fd int, buf []byte, off int64) (int, error) {
	return d.K.Pread(d.P, fd, buf, off)
}

// Pwrite implements Libc.
func (d *DirectLibc) Pwrite(fd int, buf []byte, off int64) (int, error) {
	return d.K.Pwrite(d.P, fd, buf, off)
}

// Lseek implements Libc.
func (d *DirectLibc) Lseek(fd int, off int64, whence int) (int64, error) {
	return d.K.Lseek(d.P, fd, off, whence)
}

// Stat implements Libc.
func (d *DirectLibc) Stat(path string) (kernel.FileInfo, error) { return d.K.Stat(d.P, path) }

// Fstat implements Libc.
func (d *DirectLibc) Fstat(fd int) (kernel.FileInfo, error) { return d.K.Fstat(d.P, fd) }

// Unlink implements Libc.
func (d *DirectLibc) Unlink(path string) error { return d.K.Unlink(d.P, path) }

// Rename implements Libc.
func (d *DirectLibc) Rename(oldp, newp string) error { return d.K.Rename(d.P, oldp, newp) }

// Mkdir implements Libc.
func (d *DirectLibc) Mkdir(path string, mode uint32) error { return d.K.Mkdir(d.P, path, mode) }

// Truncate implements Libc.
func (d *DirectLibc) Truncate(path string, size int64) error { return d.K.Truncate(d.P, path, size) }

// Ftruncate implements Libc.
func (d *DirectLibc) Ftruncate(fd int, size int64) error { return d.K.Ftruncate(d.P, fd, size) }

// Mmap implements Libc.
func (d *DirectLibc) Mmap(length uint64, prot uint64) (uint64, error) {
	return d.K.Mmap(d.P, length, prot)
}

// Munmap implements Libc.
func (d *DirectLibc) Munmap(addr uint64) error { return d.K.Munmap(d.P, addr) }

// Mprotect implements Libc.
func (d *DirectLibc) Mprotect(addr, length uint64, prot uint64) error {
	return d.K.Mprotect(d.P, addr, length, prot)
}

// Socket implements Libc.
func (d *DirectLibc) Socket(domain, typ int) (int, error) { return d.K.Socket(d.P, domain, typ) }

// Bind implements Libc.
func (d *DirectLibc) Bind(fd, port int) error { return d.K.Bind(d.P, fd, port) }

// Listen implements Libc.
func (d *DirectLibc) Listen(fd, backlog int) error { return d.K.Listen(d.P, fd, backlog) }

// Accept implements Libc.
func (d *DirectLibc) Accept(fd int) (int, error) { return d.K.Accept(d.P, fd) }

// Connect implements Libc.
func (d *DirectLibc) Connect(fd, port int) error { return d.K.Connect(d.P, fd, port) }

// Send implements Libc.
func (d *DirectLibc) Send(fd int, buf []byte) (int, error) { return d.K.Sendto(d.P, fd, buf) }

// Recv implements Libc.
func (d *DirectLibc) Recv(fd int, buf []byte) (int, error) { return d.K.Recvfrom(d.P, fd, buf) }

// Getpid implements Libc.
func (d *DirectLibc) Getpid() int { return d.K.Getpid(d.P) }

// Yield implements Libc.
func (d *DirectLibc) Yield() { d.K.SchedYield(d.P) }

// Print implements Libc.
func (d *DirectLibc) Print(msg string) error {
	_, err := d.K.Write(d.P, 1, []byte(msg))
	return err
}

// Burn implements Libc.
func (d *DirectLibc) Burn(cycles uint64) { d.K.Burn(cycles) }

// errno codes carried across the enclave boundary (Linux values).
var errnoTable = []struct {
	code uint64
	err  error
}{
	{2, kernel.ErrNotExist},
	{9, kernel.ErrBadFD},
	{11, kernel.ErrWouldBlock},
	{17, kernel.ErrExist},
	{20, kernel.ErrNotDir},
	{21, kernel.ErrIsDir},
	{22, kernel.ErrInval},
	{24, kernel.ErrMFile},
	{27, kernel.ErrFBig},
	{32, kernel.ErrClosed},
	{39, kernel.ErrNotEmpty},
	{40, kernel.ErrLoop},
	{98, kernel.ErrInUse},
	{107, kernel.ErrNotConnected},
	{111, kernel.ErrRefused},
}

// errnoFor flattens a kernel error into a code (0 = success, 5 EIO = other).
func errnoFor(err error) uint64 {
	if err == nil {
		return 0
	}
	for _, e := range errnoTable {
		if errors.Is(err, e.err) {
			return e.code
		}
	}
	return 5 // EIO
}

// ErrIO is the error for an errno the SDK does not map to a kernel
// sentinel (EIO included).
var ErrIO = errors.New("sdk: I/O error")

// errFor reconstitutes a kernel sentinel error from its code: the listed
// kernel error, or ErrIO for any other code.
func errFor(code uint64) error {
	if code == 0 {
		return nil
	}
	for _, e := range errnoTable {
		if e.code == code {
			return e.err
		}
	}
	return ErrIO
}

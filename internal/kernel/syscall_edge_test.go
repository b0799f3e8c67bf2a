package kernel

import (
	"errors"
	"math"
	"testing"
)

func TestOpenatAndCreatPaths(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	fd, err := k.Openat(p, -100 /* AT_FDCWD */, "/tmp/via-openat", OCreat|ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(p, fd, []byte("x")); err != nil {
		t.Fatal(err)
	}
	cfd, err := k.Creat(p, "/tmp/via-creat", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(p, cfd, []byte("y")); err != nil {
		t.Fatal(err)
	}
	// creat truncates on reopen.
	if _, err := k.Creat(p, "/tmp/via-creat", 0o600); err != nil {
		t.Fatal(err)
	}
	st, _ := k.Stat(p, "/tmp/via-creat")
	if st.Size != 0 {
		t.Fatalf("creat did not truncate: %d", st.Size)
	}
}

func TestOpenTruncAndAppendModes(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	fd, _ := k.Open(p, "/tmp/m", OCreat|OWronly, 0o644)
	k.Write(p, fd, []byte("0123456789"))
	// O_APPEND positions writes at EOF regardless of seeks.
	afd, err := k.Open(p, "/tmp/m", OWronly|OAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Lseek(p, afd, 0, SeekSet); err != nil {
		t.Fatal(err)
	}
	k.Write(p, afd, []byte("ab"))
	st, _ := k.Stat(p, "/tmp/m")
	if st.Size != 12 {
		t.Fatalf("append size = %d", st.Size)
	}
	// O_TRUNC empties.
	if _, err := k.Open(p, "/tmp/m", OWronly|OTrunc, 0); err != nil {
		t.Fatal(err)
	}
	st, _ = k.Stat(p, "/tmp/m")
	if st.Size != 0 {
		t.Fatalf("trunc size = %d", st.Size)
	}
	// Opening a directory for writing fails.
	if _, err := k.Open(p, "/tmp", ORdwr, 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("open dir rw: %v", err)
	}
}

func TestChmodMknodGetdents(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	if err := k.Mknod(p, "/dev/null0", 0o666); err != nil {
		t.Fatal(err)
	}
	if err := k.Mknod(p, "/dev/null0", 0o666); err == nil {
		t.Fatal("mknod over existing accepted")
	}
	if err := k.Chmod(p, "/dev/null0", 0o400); err != nil {
		t.Fatal(err)
	}
	st, _ := k.Stat(p, "/dev/null0")
	if st.Mode != 0o400 {
		t.Fatalf("mode = %o", st.Mode)
	}
	fd, err := k.Open(p, "/dev", ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	names, err := k.Getdents(p, fd)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range names {
		if n == "null0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("getdents = %v", names)
	}
	if err := k.Fchmod(p, fd, 0o500); err != nil {
		t.Fatal(err)
	}
}

func TestExecveForkExitLifecycle(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("init")
	if _, err := k.Open(p, "/tmp/prog", OCreat, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := k.Execve(p, "/tmp/prog", []string{"prog", "-v"}); err != nil {
		t.Fatal(err)
	}
	if p.Name != "/tmp/prog" {
		t.Fatalf("name = %q", p.Name)
	}
	if err := k.Execve(p, "/no/such/binary", nil); !errors.Is(err, ErrNotExist) {
		t.Fatalf("execve missing: %v", err)
	}
	child, err := k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
	if child.Name != p.Name || child.UID != p.UID {
		t.Fatal("fork did not inherit identity")
	}
	if err := k.Exit(child, 3); err != nil {
		t.Fatal(err)
	}
	if exited, code := child.exited, child.exitCode; !exited || code != 3 {
		t.Fatalf("exit state: %v %d", exited, code)
	}
}

func TestTimeAndIdentitySyscalls(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	t0 := k.Gettime(p)
	k.Nanosleep(p, 1_000_000) // 1 ms of virtual time
	t1 := k.Gettime(p)
	if t1 <= t0 {
		t.Fatalf("time did not advance: %d → %d", t0, t1)
	}
	if t1-t0 < 900_000 {
		t.Fatalf("nanosleep advanced only %d ns", t1-t0)
	}
	if k.Getuid(p) != 0 {
		t.Fatal("default uid")
	}
	if err := k.Setuid(p, 1000); err != nil {
		t.Fatal(err)
	}
	if k.Getuid(p) != 1000 {
		t.Fatal("setuid did not stick")
	}
}

func TestLseekWhenceValidation(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	fd, _ := k.Open(p, "/tmp/s", OCreat|ORdwr, 0o644)
	k.Write(p, fd, []byte("12345"))
	if off, err := k.Lseek(p, fd, -2, SeekEnd); err != nil || off != 3 {
		t.Fatalf("seek end: %d %v", off, err)
	}
	if off, err := k.Lseek(p, fd, 1, SeekCur); err != nil || off != 4 {
		t.Fatalf("seek cur: %d %v", off, err)
	}
	if _, err := k.Lseek(p, fd, 0, 9); !errors.Is(err, ErrInval) {
		t.Fatalf("bad whence: %v", err)
	}
	if _, err := k.Lseek(p, fd, -10, SeekSet); !errors.Is(err, ErrInval) {
		t.Fatalf("negative seek: %v", err)
	}
}

func TestProcessStdioBackedByConsole(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	if _, err := k.Write(p, 1, []byte("to stdout\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(p, 2, []byte("to stderr\n")); err != nil {
		t.Fatal(err)
	}
	console, err := k.VFS().Lookup("/dev/console")
	if err != nil {
		t.Fatal(err)
	}
	if console.Size() != 20 {
		t.Fatalf("console size = %d", console.Size())
	}
	// stdin is read-only.
	if _, err := k.Write(p, 0, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Fatalf("write to stdin: %v", err)
	}
}

func TestSyscallBaseCostsApplied(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	before := k.m.Clock().Cycles()
	if _, err := k.Open(p, "/tmp/cost", OCreat, 0o644); err != nil {
		t.Fatal(err)
	}
	cost := k.m.Clock().Cycles() - before
	// entry (300) + open base (6500); Fig. 4's native anchor.
	if cost < 6500 || cost > 9000 {
		t.Fatalf("open cost = %d cycles, want ≈6800", cost)
	}
	before = k.m.Clock().Cycles()
	_ = k.Getpid(p)
	if got := k.m.Clock().Cycles() - before; got > 1000 {
		t.Fatalf("getpid cost = %d, want cheap", got)
	}
}

func TestMachineTraceCountsSyscalls(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	before := k.m.Trace().Syscalls
	k.Getpid(p)
	k.Getuid(p)
	if got := k.m.Trace().Syscalls - before; got != 2 {
		t.Fatalf("syscall trace delta = %d", got)
	}
}

// TestOpenatAndCreatRefuseDirectories: openat and creat share open's
// body, so they refuse to open a directory for writing as open does.
func TestOpenatAndCreatRefuseDirectories(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	if err := k.Mkdir(p, "/tmp/www", 0o755); err != nil {
		t.Fatal(err)
	}
	next := p.nextFD
	if fd, err := k.Openat(p, -100 /* AT_FDCWD */, "/tmp/www", OWronly, 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("openat of a directory for writing returned fd %d, %v; want EISDIR", fd, err)
	}
	if fd, err := k.Creat(p, "/tmp/www", 0o644); !errors.Is(err, ErrIsDir) {
		t.Fatalf("creat of a directory returned fd %d, %v; want EISDIR", fd, err)
	}
	if p.nextFD != next {
		t.Fatal("a refused open installed a descriptor")
	}
	if _, err := k.Openat(p, -100, "/tmp/www", ORdonly, 0); err != nil {
		t.Fatalf("openat of a directory for reading: %v", err)
	}
}

// TestDupRefusesOutOfRangeNewFD: dup2 and dup3 refuse a negative or
// out-of-range newfd with EBADF, after the audit record, and leave the
// descriptor numbering alone.
func TestDupRefusesOutOfRangeNewFD(t *testing.T) {
	k := newNativeKernel(t, 1)
	k.Audit().SetRules([]SysNo{SysDup2, SysDup3})
	p := k.Spawn("t")
	for _, newfd := range []int{-1, -7, MaxFD, math.MaxInt32 + 1, 1 << 40} {
		records := k.Audit().Count()
		if fd, err := k.Dup2(p, 1, newfd); !errors.Is(err, ErrBadFD) || fd != -1 {
			t.Fatalf("dup2(1, %d) = %d, %v; want -1, EBADF", newfd, fd, err)
		}
		if fd, err := k.Dup3(p, 1, newfd, 0); !errors.Is(err, ErrBadFD) || fd != -1 {
			t.Fatalf("dup3(1, %d) = %d, %v; want -1, EBADF", newfd, fd, err)
		}
		if got := k.Audit().Count() - records; got != 2 {
			t.Fatalf("refused dups onto %d emitted %d audit records, want 2", newfd, got)
		}
	}
	if fd, err := k.Dup2(p, 1, MaxFD-1); err != nil || fd != MaxFD-1 {
		t.Fatalf("dup2(1, MaxFD-1) = %d, %v", fd, err)
	}
	if err := k.Close(p, MaxFD-1); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.fds[-7]; ok {
		t.Fatal("a negative descriptor was installed")
	}
}

// TestDescriptorNumbersStayBelowMaxFD: dup2 may not move the next
// descriptor number past the int32 range. The highest descriptor a process
// may hold is MaxFD-1; a dup2 or dup3 at or past MaxFD is EBADF, and once
// MaxFD-1 is taken every call that installs a new descriptor fails with
// EMFILE, never handing out a number past it and building nothing.
func TestDescriptorNumbersStayBelowMaxFD(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	for _, newfd := range []int{math.MaxInt32, MaxFD} {
		if fd, err := k.Dup2(p, 1, newfd); !errors.Is(err, ErrBadFD) {
			t.Fatalf("dup2(1, %d) = %d, %v; want EBADF", newfd, fd, err)
		}
		if fd, err := k.Dup3(p, 1, newfd, 0); !errors.Is(err, ErrBadFD) {
			t.Fatalf("dup3(1, %d) = %d, %v; want EBADF", newfd, fd, err)
		}
	}
	fd, err := k.Open(p, "/tmp/after-dup2", OCreat|ORdwr, 0o644)
	if err != nil || fd != 3 {
		t.Fatalf("open after the refused dups = %d, %v; want fd 3", fd, err)
	}
	// A listener with one pending connection, for accept.
	lfd, err := k.Socket(p, AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	cfd, err := k.Socket(p, AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Bind(p, lfd, 80); err != nil {
		t.Fatal(err)
	}
	if err := k.Listen(p, lfd, 4); err != nil {
		t.Fatal(err)
	}
	if err := k.Connect(p, cfd, 80); err != nil {
		t.Fatal(err)
	}
	if fd, err := k.Dup2(p, 1, MaxFD-1); err != nil || fd != MaxFD-1 {
		t.Fatalf("dup2(1, MaxFD-1) = %d, %v", fd, err)
	}
	pool := len(k.freeFDs)
	for name, install := range map[string]func() error{
		"open":       func() error { _, err := k.Open(p, "/tmp/past-max", OCreat|ORdwr, 0o644); return err },
		"creat":      func() error { _, err := k.Creat(p, "/tmp/past-max", 0o644); return err },
		"dup":        func() error { _, err := k.Dup(p, 1); return err },
		"pipe2":      func() error { _, _, err := k.Pipe2(p, 0); return err },
		"socket":     func() error { _, err := k.Socket(p, AFInet, SockStream); return err },
		"socketpair": func() error { _, _, err := k.Socketpair(p, AFUnix, SockStream); return err },
		"accept":     func() error { _, err := k.Accept(p, lfd); return err },
	} {
		if err := install(); !errors.Is(err, ErrMFile) {
			t.Fatalf("%s with descriptor MaxFD-1 taken = %v, want EMFILE", name, err)
		}
	}
	if _, err := k.Stat(p, "/tmp/past-max"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("a refused open created its file: stat = %v", err)
	}
	if got := len(k.freeFDs); got != pool {
		t.Fatalf("refused installs moved the FD pool from %d to %d", pool, got)
	}
	for fd := range p.fds {
		if fd < 0 || fd >= MaxFD {
			t.Fatalf("descriptor %d installed", fd)
		}
	}
}

// TestForkCopiesTheDescriptorTable: a forked child holds exactly its
// parent's descriptors, none the parent has closed, and forking builds no
// descriptor of its own.
func TestForkCopiesTheDescriptorTable(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	if err := k.Close(p, 0); err != nil {
		t.Fatal(err)
	}
	pool := len(k.freeFDs)
	child, err := k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(k.freeFDs); got != pool {
		t.Fatalf("fork changed the FD pool from %d to %d", pool, got)
	}
	if _, err := k.Read(child, 0, make([]byte, 1)); !errors.Is(err, ErrBadFD) {
		t.Fatalf("child read(0) after the parent closed fd 0 = %v, want EBADF", err)
	}
	if len(child.fds) != len(p.fds) {
		t.Fatalf("child holds %d descriptors, the parent %d", len(child.fds), len(p.fds))
	}
	for fd, f := range p.fds {
		if child.fds[fd] != f {
			t.Fatalf("child fd %d is not the parent's", fd)
		}
	}
}

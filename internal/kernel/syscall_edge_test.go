package kernel

import (
	"errors"
	"math"
	"slices"
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
	open := p.nfds
	if fd, err := k.Openat(p, -100 /* AT_FDCWD */, "/tmp/www", OWronly, 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("openat of a directory for writing returned fd %d, %v; want EISDIR", fd, err)
	}
	if fd, err := k.Creat(p, "/tmp/www", 0o644); !errors.Is(err, ErrIsDir) {
		t.Fatalf("creat of a directory returned fd %d, %v; want EISDIR", fd, err)
	}
	if p.nfds != open {
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
	if p.nfds != 3 {
		t.Fatalf("the refused dups left %d descriptors open, want 3", p.nfds)
	}
}

// TestDescriptorNumbersStayBelowMaxFD: the highest descriptor a process
// may hold is MaxFD-1, and dup2 or dup3 at or past MaxFD is EBADF. Once
// all MaxFD slots are taken every call that installs a new descriptor
// fails with EMFILE and builds nothing; with one slot free, the calls that
// install one descriptor take it and those that install two still fail.
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
	// MaxFD-1 taken is not a full table: dup fills every slot below it.
	for want := 6; want < MaxFD-1; want++ {
		if fd, err := k.Dup(p, 1); err != nil || fd != want {
			t.Fatalf("dup with %d descriptors open = %d, %v; want %d", p.nfds, fd, err, want)
		}
	}
	installs := map[string]func() error{
		"open":       func() error { _, err := k.Open(p, "/tmp/past-max", OCreat|ORdwr, 0o644); return err },
		"creat":      func() error { _, err := k.Creat(p, "/tmp/past-max", 0o644); return err },
		"dup":        func() error { _, err := k.Dup(p, 1); return err },
		"pipe2":      func() error { _, _, err := k.Pipe2(p, 0); return err },
		"socket":     func() error { _, err := k.Socket(p, AFInet, SockStream); return err },
		"socketpair": func() error { _, _, err := k.Socketpair(p, AFUnix, SockStream); return err },
		"accept":     func() error { _, err := k.Accept(p, lfd); return err },
	}
	pool := len(k.freeFDs)
	for name, install := range installs {
		if err := install(); !errors.Is(err, ErrMFile) {
			t.Fatalf("%s with all %d slots taken = %v, want EMFILE", name, MaxFD, err)
		}
	}
	if _, err := k.Stat(p, "/tmp/past-max"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("a refused open created its file: stat = %v", err)
	}
	if got := len(k.freeFDs); got != pool {
		t.Fatalf("refused installs moved the FD pool from %d to %d", pool, got)
	}
	// One free slot: two-descriptor calls still fail, and each
	// one-descriptor call takes the freed number.
	for _, name := range []string{"pipe2", "socketpair", "open", "creat", "dup", "socket", "accept"} {
		if err := k.Close(p, 700); err != nil {
			t.Fatal(err)
		}
		err := installs[name]()
		if name == "pipe2" || name == "socketpair" {
			if !errors.Is(err, ErrMFile) {
				t.Fatalf("%s with one slot free = %v, want EMFILE", name, err)
			}
			if _, err := k.Dup(p, 1); err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatalf("%s with slot 700 free = %v", name, err)
		}
		if p.nfds != MaxFD || p.fds[700] == nil {
			t.Fatalf("%s left %d descriptors open and slot 700 %v", name, p.nfds, p.fds[700])
		}
	}
	if got := len(p.fds); got != MaxFD {
		t.Fatalf("the descriptor table has %d slots, want %d", got, MaxFD)
	}
}

// TestClosedMaxFDMinus1LeavesTheTableUsable: a process that once held the
// highest descriptor number opens again at the lowest free number once
// it closes it.
func TestClosedMaxFDMinus1LeavesTheTableUsable(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("t")
	if fd, err := k.Dup2(p, 1, MaxFD-1); err != nil || fd != MaxFD-1 {
		t.Fatalf("dup2(1, MaxFD-1) = %d, %v", fd, err)
	}
	if err := k.Close(p, MaxFD-1); err != nil {
		t.Fatal(err)
	}
	if fd, err := k.Open(p, "/tmp/after-max", OCreat|ORdwr, 0o644); err != nil || fd != 3 {
		t.Fatalf("open after closing MaxFD-1 = %d, %v; want 3", fd, err)
	}
}

// TestInstallsTakeTheLowestFreeDescriptor drives every call that installs
// descriptors against a set of the open numbers: each returns the lowest
// free numbers, EMFILE comes exactly when fewer slots are free than the
// call installs, and closing any descriptor frees its number for the next
// call.
func TestInstallsTakeTheLowestFreeDescriptor(t *testing.T) {
	k := newNativeKernel(t, 1)
	p, cli := k.Spawn("t"), k.Spawn("client")
	open := map[int]bool{0: true, 1: true, 2: true}
	lfd, err := k.Socket(p, AFInet, SockStream)
	if err != nil || lfd != 3 {
		t.Fatalf("socket = %d, %v; want 3", lfd, err)
	}
	open[lfd] = true
	if k.Bind(p, lfd, 80) != nil || k.Listen(p, lfd, MaxFD) != nil {
		t.Fatal("listen")
	}
	one := func(fd int, err error) ([]int, error) { return []int{fd}, err }
	two := func(a, b int, err error) ([]int, error) { return []int{a, b}, err }
	installs := []struct {
		name string
		n    int
		call func() ([]int, error)
	}{
		{"open", 1, func() ([]int, error) { return one(k.Open(p, "/tmp/a", OCreat|ORdwr, 0o644)) }},
		{"openat", 1, func() ([]int, error) { return one(k.Openat(p, -100, "/tmp/a", ORdonly, 0)) }},
		{"creat", 1, func() ([]int, error) { return one(k.Creat(p, "/tmp/b", 0o644)) }},
		{"socket", 1, func() ([]int, error) { return one(k.Socket(p, AFInet, SockStream)) }},
		{"accept", 1, func() ([]int, error) {
			cfd, err := k.Socket(cli, AFInet, SockStream)
			if err != nil {
				return nil, err
			}
			if err := k.Connect(cli, cfd, 80); err != nil {
				return nil, err
			}
			fds, err := one(k.Accept(p, lfd))
			if err != nil {
				_ = k.Close(cli, cfd) // refused: the connection stays queued
			}
			return fds, err
		}},
		{"dup", 1, func() ([]int, error) { return one(k.Dup(p, 1)) }},
		{"pipe2", 2, func() ([]int, error) { return two(k.Pipe2(p, 0)) }},
		{"socketpair", 2, func() ([]int, error) { return two(k.Socketpair(p, AFUnix, SockStream)) }},
	}
	// lowest returns the n lowest free numbers, or nil if fewer are free.
	lowest := func(n int) []int {
		var fds []int
		for fd := 0; fd < MaxFD && len(fds) < n; fd++ {
			if !open[fd] {
				fds = append(fds, fd)
			}
		}
		if len(fds) < n {
			return nil
		}
		return fds
	}
	run := func(i int) {
		t.Helper()
		c := installs[i%len(installs)]
		want := lowest(c.n)
		got, err := c.call()
		if want == nil {
			if !errors.Is(err, ErrMFile) {
				t.Fatalf("%s with %d slots free = %v, %v; want EMFILE", c.name, MaxFD-len(open), got, err)
			}
			return
		}
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s with %d slots free = %v, %v; want %v", c.name, MaxFD-len(open), got, err, want)
		}
		for _, fd := range got {
			open[fd] = true
		}
	}
	closeFD := func(fd int) {
		t.Helper()
		if err := k.Close(p, fd); err != nil {
			t.Fatalf("close(%d): %v", fd, err)
		}
		delete(open, fd)
	}
	// Holes below the next number are filled first.
	for i := 0; i < 16; i++ {
		run(i)
	}
	for _, fd := range []int{0, 2, 9, 5} {
		closeFD(fd)
	}
	i := 0
	for ; len(open) < MaxFD; i++ {
		run(i)
	}
	if p.nfds != MaxFD {
		t.Fatalf("the kernel holds %d descriptors, the reference %d", p.nfds, len(open))
	}
	for j := range installs {
		run(j) // every call fails with EMFILE
	}
	// Closing any descriptor frees exactly that number.
	for _, fd := range []int{0, 700, MaxFD - 1, 512, 4} {
		closeFD(fd)
		for j := range installs {
			run(i + j)
		}
		if len(open) < MaxFD {
			t.Fatalf("no call took the freed number %d", fd)
		}
	}
	// Two free numbers, far apart: a two-descriptor call takes both.
	closeFD(MaxFD - 2)
	closeFD(1)
	run(6) // pipe2
	if !open[1] || !open[MaxFD-2] {
		t.Fatal("pipe2 did not take both free numbers")
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
	if child.nfds != p.nfds {
		t.Fatalf("child holds %d descriptors, the parent %d", child.nfds, p.nfds)
	}
	for fd, f := range p.fds {
		if child.fds[fd] != f {
			t.Fatalf("child fd %d is not the parent's", fd)
		}
	}
}

package kernel

import (
	"errors"
	"math"
	"testing"

	"veil/internal/snp"
)

// An open file is released once, by its last descriptor: dup'd and
// fork-inherited descriptors share it, and exit drops a process's
// descriptors through the same path as close.

func TestDupSurvivesCloseOfOriginal(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("dup")
	a, b, err := k.Socketpair(p, AFUnix, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	d, err := k.Dup(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Close(p, a); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sendto(p, d, []byte("still open")); err != nil {
		t.Fatalf("send on the dup of a closed descriptor: %v", err)
	}
	buf := make([]byte, 16)
	if n, err := k.Recvfrom(p, b, buf); err != nil || string(buf[:n]) != "still open" {
		t.Fatalf("peer read %q, %v", buf[:max(n, 0)], err)
	}
	if _, err := k.Recvfrom(p, b, buf); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("peer of a still-open dup read %v; want EWOULDBLOCK", err)
	}
	if err := k.Close(p, d); err != nil {
		t.Fatal(err)
	}
	if n, err := k.Recvfrom(p, b, buf); n != 0 || err != nil {
		t.Fatalf("peer after the last close read %d, %v; want EOF", n, err)
	}
}

func TestPeerOfExitedProcessReadsEOF(t *testing.T) {
	k := newNativeKernel(t, 1)
	srv, cli := k.Spawn("server"), k.Spawn("client")
	ls, _ := k.Socket(srv, AFInet, SockStream)
	if k.Bind(srv, ls, 80) != nil || k.Listen(srv, ls, 4) != nil {
		t.Fatal("listen")
	}
	cs, _ := k.Socket(cli, AFInet, SockStream)
	if err := k.Connect(cli, cs, 80); err != nil {
		t.Fatal(err)
	}
	as, err := k.Accept(srv, ls)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sendto(cli, cs, []byte("bye")); err != nil {
		t.Fatal(err)
	}
	if err := k.Exit(cli, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, err := k.Recvfrom(srv, as, buf); err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("server read %q, %v; want the bytes sent before exit", buf[:max(n, 0)], err)
	}
	if n, err := k.Recvfrom(srv, as, buf); n != 0 || err != nil {
		t.Fatalf("server read %d, %v after the client exited; want EOF", n, err)
	}
}

func TestPipeDupSurvivesCloseOfOriginal(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("pipe")
	r, w, err := k.Pipe2(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := k.Dup(p, r)
	w2, _ := k.Dup(p, w)
	if k.Close(p, r) != nil || k.Close(p, w) != nil {
		t.Fatal("close")
	}
	if _, err := k.Write(p, w2, []byte("x")); err != nil {
		t.Fatalf("write with the read end still open through a dup: %v", err)
	}
	buf := make([]byte, 4)
	if n, err := k.Read(p, r2, buf); n != 1 || err != nil {
		t.Fatalf("read %d, %v", n, err)
	}
	if _, err := k.Read(p, r2, buf); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("read with the write end still open through a dup: %v; want EWOULDBLOCK", err)
	}
	if err := k.Close(p, w2); err != nil {
		t.Fatal(err)
	}
	if n, err := k.Read(p, r2, buf); n != 0 || err != nil {
		t.Fatalf("read after the last writer closed: %d, %v; want EOF", n, err)
	}
}

func TestPipeReaderSeesEOFWhenWriterExits(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("parent")
	r, w, err := k.Pipe2(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	child, err := k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
	if k.Close(p, w) != nil || k.Close(child, r) != nil {
		t.Fatal("close")
	}
	buf := make([]byte, 4)
	if _, err := k.Read(p, r, buf); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("read while the child holds the write end: %v; want EWOULDBLOCK", err)
	}
	if err := k.Exit(child, 0); err != nil {
		t.Fatal(err)
	}
	if n, err := k.Read(p, r, buf); n != 0 || err != nil {
		t.Fatalf("read after the writer exited: %d, %v; want EOF", n, err)
	}
}

func TestDupSharesFileOffset(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("off")
	fd, err := k.Open(p, "/tmp/shared", OCreat|ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := k.Dup(p, fd)
	if _, err := k.Write(p, fd, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if off, err := k.Lseek(p, d, 0, SeekCur); err != nil || off != 5 {
		t.Fatalf("dup'd descriptor is at offset %d, %v; want 5", off, err)
	}
}

// FuzzProcessLifecycle runs arbitrary multi-process sequences of
// descriptor, socket, pipe, memory and process calls, then exits every
// process. Along the way and at the end the kernel must hold:
//   - the registered listeners are exactly the listening sockets some
//     descriptor names;
//   - the FD, socket and connection pools never hold an object twice or
//     one not cleared for reuse, and no pooled object is reachable from a
//     live descriptor, a listener or a backlog;
//   - every call's descriptor numbers, EBADF and EMFILE agree with the
//     reference table of fdtable_ref_test.go (lowest free number first,
//     at most MaxFD), and after every op each process holds the
//     reference's descriptors, sharing open files where it does; dup2
//     and dup3 refuse an out-of-range newfd with EBADF;
//   - an end whose peer is fully closed or exited reads EOF (a pipe
//     writer gets EPIPE);
//   - after every exit, free frames are back at their baseline, and every
//     connection is back in the pool, up to its bound.
func FuzzProcessLifecycle(f *testing.F) {
	for _, seed := range [][]byte{
		{5, 0, 6, 0, 7, 0, 5, 0, 8, 1, 9, 0, 15, 2, 16, 3, 17, 1, 17, 2},
		{10, 0, 12, 0, 17, 0, 15, 1, 1, 0, 2, 0, 16, 0},
		{11, 0, 1, 0, 17, 1, 2, 1, 16, 0, 3, 0, 3, 15},
		{5, 0, 6, 1, 7, 0, 1, 0, 5, 1, 8, 1, 13, 4, 14, 2, 2, 0},
		{0, 0, 5, 0, 6, 0, 7, 0, 5, 1, 8, 0, 17, 0, 9, 0, 2, 1},
		// A listening socket shared with a child, bound again to a
		// second port: the second bind must fail, or the first port's
		// listener outlives every descriptor.
		{5, 0, 1, 0, 6, 6, 7, 6, 6, 7},
		// Two sockets bound to one port both try to listen: the second
		// must fail, or it takes the port from the first.
		{5, 0, 5, 0, 6, 3, 6, 9, 7, 3, 7, 9},
		// The top slot taken and the table filled: a close frees one
		// number for open, and pipe2 still finds too few.
		{19, 3, 4, 0, 18, 15, 17, 0, 4, 0, 11, 0, 17, 200, 11, 0},
		// A full table forked, then closed lowest first.
		{18, 15, 1, 0, 17, 0, 17, 1, 12, 1, 2, 1, 10, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		k := newNativeKernel(t, 1)
		ref := newRefTables(t)
		baseline := freeFrames(k)
		spawn := func(name string) *Process {
			p := k.Spawn(name)
			ref.spawn(p)
			return p
		}
		procs := []*Process{spawn("init")}
		fresh := 0 // connections the network stack allocated rather than reused
		buf := make([]byte, 32)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%20, int(ops[i+1])
			if len(procs) == 0 {
				procs = append(procs, spawn("init"))
			}
			p := procs[arg%len(procs)]
			fd := pickFD(p, arg/len(procs))
			other := pickFD(p, arg/7)
			if arg%32 == 31 {
				other = outOfRangeFD[arg/32%len(outOfRangeFD)]
			}
			port := 1 + arg%3
			switch op {
			case 0:
				if len(procs) < 6 {
					procs = append(procs, spawn("task"))
				}
			case 1:
				if len(procs) < 6 {
					child, err := k.Fork(p)
					if err != nil {
						t.Fatal(err)
					}
					ref.fork(p, child)
					procs = append(procs, child)
				}
			case 2:
				if err := k.Exit(p, 0); err != nil {
					t.Fatal(err)
				}
				delete(ref.procs, p)
				procs = removeProc(procs, p)
			case 3:
				pages := uint64(arg%4 + 1)
				if arg%16 == 15 {
					pages = uint64(freeFrames(k) + 1) // must fail, and leak nothing
				}
				_, _ = k.Mmap(p, pages*snp.PageSize, ProtRead|ProtWrite)
			case 4:
				got, err := k.Open(p, "/tmp/f", OCreat|ORdwr, 0o644)
				ref.install("open", p, []int{got}, err, ref.file(false, true, true))
			case 5:
				got, err := k.Socket(p, AFInet, SockStream)
				ref.install("socket", p, []int{got}, err, ref.file(true, true, true))
			case 6:
				ref.use("bind", p, fd, isSock, k.Bind(p, fd, port))
			case 7:
				ref.use("listen", p, fd, isSock, k.Listen(p, fd, 4))
			case 8:
				var err error
				fresh += newConns(k, func() bool { err = k.Connect(p, fd, port); return err == nil })
				ref.use("connect", p, fd, isSock, err)
			case 9:
				got, err := k.Accept(p, fd)
				ref.use("accept", p, fd, isSock, err)
				if ref.usable(p, fd, isSock) {
					ref.install("accept", p, []int{got}, err, ref.file(true, true, true))
				}
			case 10:
				var a, b int
				var err error
				fresh += newConns(k, func() bool { a, b, err = k.Socketpair(p, AFUnix, SockStream); return err == nil })
				ref.install("socketpair", p, []int{a, b}, err, ref.file(true, true, true), ref.file(true, true, true))
			case 11:
				r, w, err := k.Pipe2(p, 0)
				ref.install("pipe2", p, []int{r, w}, err, ref.file(false, true, false), ref.file(false, false, true))
			case 12:
				got, err := k.Dup(p, fd)
				ref.dup(p, fd, got, err)
			case 13:
				got, err := k.Dup2(p, fd, other)
				ref.dupTo("dup2", p, fd, other, got, err)
			case 14:
				got, err := k.Dup3(p, fd, other, 0)
				if fd == other { // refused with EINVAL before the range check
					if !errors.Is(err, ErrInval) {
						t.Fatalf("dup3(%d, %d) = %d, %v; want EINVAL", fd, other, got, err)
					}
					break
				}
				ref.dupTo("dup3", p, fd, other, got, err)
			case 15:
				_, err := k.Write(p, fd, buf[:arg%len(buf)])
				ref.use("write", p, fd, canWrite, err)
			case 16:
				_, err := k.Read(p, fd, buf)
				ref.use("read", p, fd, canRead, err)
			case 17:
				ref.close(p, fd, k.Close(p, fd))
			case 18:
				// Dup a few times, or (one arg in 16) fill every free slot
				// with dup2, and dup once more into the full table.
				if arg%16 == 15 {
					for newfd := range MaxFD {
						if _, open := ref.procs[p][newfd]; !open {
							got, err := k.Dup2(p, fd, newfd)
							ref.dupTo("dup2", p, fd, newfd, got, err)
						}
					}
				}
				for range arg%16 + 1 {
					got, err := k.Dup(p, fd)
					ref.dup(p, fd, got, err)
				}
			case 19:
				// The top slots: a table that once held them stays usable.
				got, err := k.Dup2(p, fd, MaxFD-1-arg%4)
				ref.dupTo("dup2", p, fd, MaxFD-1-arg%4, got, err)
			}
			ref.compare(procs)
			checkPool(t, k, procs)
			checkListeners(t, k, procs)
		}

		// One survivor keeps its descriptors while every other process
		// exits: each of its ends whose peer is gone must see EOF.
		for i := len(procs) - 1; i >= 0; i-- {
			if i == 0 {
				checkOrphanedEnds(t, k, procs[0])
			}
			if err := k.Exit(procs[i], 0); err != nil {
				t.Fatal(err)
			}
			delete(ref.procs, procs[i])
		}
		ref.compare(nil)
		checkPool(t, k, nil)
		checkListeners(t, k, nil)
		if got := freeFrames(k); got != baseline {
			t.Fatalf("after every process exited %d frames are free, want %d", got, baseline)
		}
		if want := min(fresh, maxFreeConns); len(k.net().free) != want {
			t.Fatalf("after every process exited the pool holds %d connections, want %d", len(k.net().free), want)
		}
	})
}

// pickFD returns one of p's open descriptors, chosen by i, or -1.
func pickFD(p *Process, i int) int {
	if p.nfds == 0 {
		return -1
	}
	i %= p.nfds
	for fd, f := range p.fds {
		if f != nil {
			if i == 0 {
				return fd
			}
			i--
		}
	}
	return -1
}

func removeProc(procs []*Process, p *Process) []*Process {
	for i, q := range procs {
		if q == p {
			return append(procs[:i], procs[i+1:]...)
		}
	}
	return procs
}

// newConns runs a call that may open a connection and returns 1 if it
// allocated the connection rather than took it from the pool.
func newConns(k *Kernel, call func() bool) int {
	pooled := len(k.net().free)
	if !call() || pooled > 0 {
		return 0
	}
	return 1
}

// outOfRangeFD holds newfd values dup2 and dup3 must refuse.
var outOfRangeFD = []int{-1, -7, MaxFD, math.MaxInt32 + 1, 1 << 40}

// checkListeners fails unless the registered listeners are exactly the
// listening sockets that descriptors of the live processes name.
func checkListeners(t *testing.T, k *Kernel, procs []*Process) {
	t.Helper()
	named := map[*Socket]bool{}
	for _, p := range procs {
		for _, f := range p.fds {
			if f == nil {
				continue
			}
			if s := f.sock; s != nil && s.listening {
				named[s] = true
				if k.net().listeners[s.port] != s {
					t.Fatalf("a listening socket on port %d is not its port's listener", s.port)
				}
			}
		}
	}
	for port, l := range k.net().listeners {
		if !named[l] {
			t.Fatalf("port %d still has a listener after its last descriptor went", port)
		}
	}
}

// checkOrphanedEnds drains every socket and pipe end of p whose peer no
// descriptor of p reaches (p is the last live process): a reader must
// end at EOF, a pipe writer at EPIPE.
func checkOrphanedEnds(t *testing.T, k *Kernel, p *Process) {
	t.Helper()
	ends := map[*conn]bool{}
	pipes := map[*pipeEnd]bool{}
	for _, f := range p.fds {
		if f == nil {
			continue
		}
		if f.sock != nil {
			ends[f.sock.peer] = true
			for _, c := range f.sock.backlog {
				ends[c] = true // waits for an accept from p
			}
		}
		pipes[f.pipe] = true
	}
	buf := make([]byte, 64)
	for fd, f := range p.fds {
		switch {
		case f == nil:
		case f.sock != nil && f.sock.peer != nil && !ends[f.sock.peer.remote]:
			n, err := drain(func() (int, error) { return k.Recvfrom(p, fd, buf) })
			if n != 0 || err != nil {
				t.Fatalf("fd %d, whose peer is closed, reads %d, %v; want EOF", fd, n, err)
			}
		case f.pipe != nil && !pipes[f.pipe.peer] && f.pipe.readSide:
			n, err := drain(func() (int, error) { return k.Read(p, fd, buf) })
			if n != 0 || err != nil {
				t.Fatalf("pipe fd %d, whose writer is closed, reads %d, %v; want EOF", fd, n, err)
			}
		case f.pipe != nil && !pipes[f.pipe.peer]:
			if _, err := k.Write(p, fd, buf[:1]); !errors.Is(err, ErrClosed) {
				t.Fatalf("pipe fd %d, whose reader is closed, writes with %v; want EPIPE", fd, err)
			}
		}
	}
}

// drain calls read until it returns no bytes, and returns that result.
func drain(read func() (int, error)) (int, error) {
	for {
		if n, err := read(); n <= 0 || err != nil {
			return n, err
		}
	}
}

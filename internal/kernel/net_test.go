package kernel

import (
	"errors"
	"reflect"
	"testing"
)

// checkPool fails if a recycle pool holds one object twice or an object
// that is not ready for reuse, or if a pooled FD, socket or connection is
// still reachable from a descriptor of procs, a listener or a backlog.
func checkPool(t *testing.T, k *Kernel, procs []*Process) {
	t.Helper()
	fds := map[*FD]bool{}
	for _, f := range k.freeFDs {
		if fds[f] {
			t.Fatal("the FD pool holds the same FD twice")
		}
		if !reflect.ValueOf(f).Elem().IsZero() {
			t.Fatalf("a pooled FD is not cleared: %+v", *f)
		}
		fds[f] = true
	}
	socks := map[*Socket]bool{}
	for _, s := range k.net().sockets {
		if socks[s] {
			t.Fatal("the socket pool holds the same socket twice")
		}
		if !reflect.ValueOf(s).Elem().IsZero() {
			t.Fatalf("a pooled socket is not cleared: %+v", *s)
		}
		socks[s] = true
	}
	conns := map[*connection]bool{}
	for _, c := range k.net().free {
		if conns[c] {
			t.Fatal("the connection pool holds the same connection twice")
		}
		for i := range c.end {
			if c.end[i].closed || c.q[i].len() != 0 {
				t.Fatalf("a pooled connection has a closed end or %d queued bytes", c.q[i].len())
			}
		}
		conns[c] = true
	}
	// reachable runs once per socket descriptor, so it formats where only
	// to fail.
	reachable := func(s *Socket, where any) {
		if socks[s] {
			t.Fatalf("%v names a pooled socket", where)
		}
		if s.peer != nil && conns[s.peer.of] {
			t.Fatalf("%v reaches a pooled connection", where)
		}
		for _, c := range s.backlog {
			if conns[c.of] {
				t.Fatalf("the backlog of %v holds a pooled connection", where)
			}
		}
	}
	for _, p := range procs {
		for fd, f := range p.fds {
			if f == nil {
				continue
			}
			if fds[f] {
				t.Fatalf("%v fd %d names a pooled FD", p, fd)
			}
			if f.sock != nil {
				reachable(f.sock, p)
			}
		}
	}
	for _, l := range k.net().listeners {
		reachable(l, "a listener")
	}
}

// pooled counts the FDs of set that are in the kernel's FD pool.
func pooled(k *Kernel, set map[*FD]bool) int {
	n := 0
	for _, f := range k.freeFDs {
		if set[f] {
			n++
		}
	}
	return n
}

// TestRecycledQueuesStayIsolated closes a connection whose descriptors
// were dup'd and fork-copied, then opens connections that may reuse its
// connection, FDs and descriptor numbers. Every closed descriptor of the
// first connection fails with EBADF, or, once a later connection took its
// number, reaches only that connection's open file; its objects are recycled only once the last copy is
// closed, a connection on recycled objects starts empty and reads only
// its own bytes, and closing ends twice never pools an object twice.
func TestRecycledQueuesStayIsolated(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("iso")
	ls, _ := k.Socket(p, AFInet, SockStream)
	if k.Bind(p, ls, 8080) != nil || k.Listen(p, ls, 4) != nil {
		t.Fatal("listen")
	}
	connect := func(proc *Process) (cs, as int) {
		t.Helper()
		cs, _ = k.Socket(proc, AFInet, SockStream)
		if err := k.Connect(proc, cs, 8080); err != nil {
			t.Fatal(err)
		}
		as, err := k.Accept(p, ls)
		if err != nil {
			t.Fatal(err)
		}
		return cs, as
	}
	buf := make([]byte, 64)

	// Connection 1, with bytes left unread in both directions.
	c1, a1 := connect(p)
	conn1 := p.fds[c1].sock.peer.of
	fds1 := map[*FD]bool{p.fds[c1]: true, p.fds[a1]: true}
	dup, err := k.Dup(p, c1)
	if err != nil {
		t.Fatal(err)
	}
	child, err := k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
	procs := []*Process{p, child}
	if _, err := k.Sendto(p, c1, []byte("first-request")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sendto(p, a1, []byte("first-reply")); err != nil {
		t.Fatal(err)
	}
	if k.Close(p, c1) != nil || k.Close(p, a1) != nil {
		t.Fatal("close")
	}
	if !errors.Is(k.Close(p, c1), ErrBadFD) || !errors.Is(k.Close(p, a1), ErrBadFD) {
		t.Fatal("a second close of the same descriptor must fail with EBADF")
	}
	if len(k.net().free) != 0 || pooled(k, fds1) != 0 {
		t.Fatal("connection 1 recycled while a dup'd and a fork-copied descriptor still reach it")
	}

	// Connection 2 while copies of connection 1 are open: fresh objects.
	c2, a2 := connect(p)
	if p.fds[c2].sock.peer.of == conn1 || fds1[p.fds[c2]] || fds1[p.fds[a2]] {
		t.Fatal("connection 2 reuses objects of a connection that is still reachable")
	}
	if _, err := k.Sendto(p, c2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sendto(p, a2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	// The copies share connection 1's open files: the dup'd one reads its
	// own reply. The child still holds the accepted end, so the
	// fork-copied client end waits for more until the child closes it,
	// and then reads EOF.
	if n, err := k.Recvfrom(p, dup, buf); err != nil || string(buf[:n]) != "first-reply" {
		t.Fatalf("dup'd copy of connection 1 read %q, %v; want its own reply", buf[:n], err)
	}
	if n, err := k.Recvfrom(child, c1, buf); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("fork-copied connection 1 read %q, %v while the child holds the peer; want EWOULDBLOCK", buf[:max(n, 0)], err)
	}
	if err := k.Close(child, a1); err != nil {
		t.Fatal(err)
	}
	if n, err := k.Recvfrom(child, c1, buf); err != nil || n != 0 {
		t.Fatalf("fork-copied connection 1 read %q, %v after the peer's last close; want EOF", buf[:max(n, 0)], err)
	}

	// Close every copy of the client end (the child inherited the dup'd
	// one too), some twice: connection 1 goes back to the pool exactly
	// once, emptied, and only with the last copy.
	for i, c := range []struct {
		proc *Process
		fd   int
	}{{p, dup}, {child, c1}, {child, a1}, {p, dup}, {child, dup}} {
		if len(k.net().free) != 0 {
			t.Fatalf("connection 1 recycled after only %d closes of its copies", i)
		}
		_ = k.Close(c.proc, c.fd)
		checkPool(t, k, procs)
	}
	if len(k.net().free) != 1 || k.net().free[0] != conn1 || pooled(k, fds1) != 2 {
		t.Fatalf("pools hold %d connections and %d of its FDs after connection 1's last descriptor closed, want connection 1 and both FDs", len(k.net().free), pooled(k, fds1))
	}

	// Connection 3 takes connection 1's connection and two pooled FDs,
	// and starts empty.
	free := map[*FD]bool{}
	for _, f := range k.freeFDs {
		free[f] = true
	}
	c3, a3 := connect(p)
	if p.fds[c3].sock.peer.of != conn1 || !free[p.fds[c3]] || !free[p.fds[a3]] {
		t.Fatal("connection 3 did not reuse recycled objects")
	}
	checkPool(t, k, procs)
	for _, fd := range []int{c3, a3} {
		if n, err := k.Recvfrom(p, fd, buf); !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("a fresh connection on recycled objects read %q, %v; want nothing", buf[:max(n, 0)], err)
		}
	}
	if _, err := k.Sendto(p, c3, []byte("third")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sendto(p, a3, []byte("third")); err != nil {
		t.Fatal(err)
	}
	// Every descriptor of connection 1 is closed, in both processes.
	// Descriptor numbers are reused lowest first, so p's numbers of
	// connection 1 now name connection 2's and 3's ends: a reused number
	// reaches only the open file of its new connection. The child opened
	// nothing since, so its numbers stay closed.
	reused := map[*FD]bool{p.fds[c2]: true, p.fds[a2]: true, p.fds[c3]: true, p.fds[a3]: true}
	for _, c := range []struct {
		proc *Process
		fd   int
	}{{p, c1}, {p, a1}, {p, dup}, {child, c1}, {child, a1}, {child, dup}} {
		if f, open := c.proc.lookupFD(c.fd); open {
			if c.proc != p || !reused[f] {
				t.Fatalf("%v fd %d of connection 1 still names an open file of its own", c.proc, c.fd)
			}
			continue
		}
		if n, err := k.Recvfrom(c.proc, c.fd, buf); !errors.Is(err, ErrBadFD) {
			t.Fatalf("closed fd %d of connection 1 read %q, %v; want EBADF", c.fd, buf[:max(n, 0)], err)
		}
		if _, err := k.Sendto(c.proc, c.fd, []byte("stale")); !errors.Is(err, ErrBadFD) {
			t.Fatalf("closed fd %d of connection 1 sent with %v; want EBADF", c.fd, err)
		}
	}
	// Connection 2's ends still see only their own bytes.
	for _, fd := range []int{c2, a2} {
		n, err := k.Recvfrom(p, fd, buf)
		if err != nil || string(buf[:n]) != "second" {
			t.Fatalf("connection 2 read %q, %v; want its own bytes", buf[:n], err)
		}
	}
	for _, fd := range []int{c3, a3} {
		if n, err := k.Recvfrom(p, fd, buf); err != nil || string(buf[:n]) != "third" {
			t.Fatalf("connection 3 read %q, %v", buf[:n], err)
		}
	}

	// Socketpair ends and dup2 over a socket descriptor release too, and
	// both ends closed twice still pool each connection once.
	sa, sb, err := k.Socketpair(p, AFUnix, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Dup2(p, ls, sa); err != nil { // drops sa's only reference
		t.Fatal(err)
	}
	before := len(k.net().free)
	for i := 0; i < 2; i++ {
		_ = k.Close(p, sb)
		_ = k.Close(p, c3)
		_ = k.Close(p, a3)
		checkPool(t, k, procs)
	}
	if got := len(k.net().free) - before; got != 2 {
		t.Fatalf("closing a socketpair and connection 3 pooled %d connections, want 2", got)
	}
}

// TestHTTPExchangeZeroAlloc pins one HTTP exchange, as the web-server
// workloads drive it, at zero allocations on a warmed kernel: each
// request's two sockets, its connection and its open file come from the
// pools the previous request's closes filled. It holds with auditing off
// and with DefaultRuleset's records going to hooks.
func TestHTTPExchangeZeroAlloc(t *testing.T) {
	const size = 10 << 10
	for _, audited := range []bool{false, true} {
		name := "unaudited"
		if audited {
			name = "audited"
		}
		t.Run(name, func(t *testing.T) {
			k := newNativeKernel(t, 1)
			emitted := 0
			if audited {
				k = newHookedKernel(t, &recordingHooks{onAudit: func(rec []byte) error {
					emitted++
					return nil
				}})
				k.Audit().SetRules(DefaultRuleset())
			}
			srv, cli := k.Spawn("httpd"), k.Spawn("ab")
			ls, _ := k.Socket(srv, AFInet, SockStream)
			if k.Bind(srv, ls, 80) != nil || k.Listen(srv, ls, 128) != nil {
				t.Fatal("listen")
			}
			fd, err := k.Open(srv, "/tmp/index.html", OCreat|OWronly, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Write(srv, fd, make([]byte, size)); err != nil || k.Close(srv, fd) != nil {
				t.Fatalf("write: %v", err)
			}
			req := []byte("GET /index.html HTTP/1.0\r\nHost: cvm\r\n\r\n")
			hdr := []byte("HTTP/1.0 200 OK\r\nContent-Length: 10240\r\n\r\n")
			reqBuf, body, resp := make([]byte, 4096), make([]byte, size), make([]byte, 16<<10)

			// exchange serves one request and returns the bytes the
			// client read before EOF.
			exchange := func() (int, error) {
				cfd, err := k.Socket(cli, AFInet, SockStream)
				if err != nil {
					return 0, err
				}
				if err := k.Connect(cli, cfd, 80); err != nil {
					return 0, err
				}
				if _, err := k.Sendto(cli, cfd, req); err != nil {
					return 0, err
				}
				afd, err := k.Accept(srv, ls)
				if err != nil {
					return 0, err
				}
				if _, err := k.Recvfrom(srv, afd, reqBuf); err != nil {
					return 0, err
				}
				fd, err := k.Open(srv, "/tmp/index.html", ORdonly, 0)
				if err != nil {
					return 0, err
				}
				m, err := k.Read(srv, fd, body)
				if err != nil {
					return 0, err
				}
				if err := k.Close(srv, fd); err != nil {
					return 0, err
				}
				if _, err := k.Sendto(srv, afd, hdr); err != nil {
					return 0, err
				}
				if _, err := k.Sendto(srv, afd, body[:m]); err != nil {
					return 0, err
				}
				if err := k.Close(srv, afd); err != nil {
					return 0, err
				}
				got := 0
				for {
					n, err := k.Recvfrom(cli, cfd, resp)
					if err != nil {
						return got, err
					}
					if n == 0 {
						break
					}
					got += n
				}
				return got, k.Close(cli, cfd)
			}
			var got int
			for i := 0; i < 2; i++ { // warm-up: fills the pools and grows the queues
				if got, err = exchange(); err != nil || got != len(hdr)+size {
					t.Fatalf("exchange read %d bytes, %v; want %d", got, err, len(hdr)+size)
				}
			}
			before := emitted
			if a := testing.AllocsPerRun(100, func() { got, err = exchange() }); a != 0 {
				t.Errorf("one HTTP exchange allocates %.1f times, want 0", a)
			}
			if err != nil || got != len(hdr)+size {
				t.Fatalf("exchange read %d bytes, %v; want %d", got, err, len(hdr)+size)
			}
			if audited && emitted == before {
				t.Fatal("the audited exchange emitted no record")
			}
		})
	}
}

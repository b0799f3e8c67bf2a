package kernel

import (
	"errors"
	"testing"
)

// checkPool fails if the recycled-queue pool holds one queue twice.
func checkPool(t *testing.T, k *Kernel) {
	t.Helper()
	seen := map[*byteQueue]bool{}
	for _, q := range k.net().free {
		if seen[q] {
			t.Fatal("the queue pool holds the same queue twice")
		}
		if q.len() != 0 {
			t.Fatalf("a pooled queue still holds %d bytes", q.len())
		}
		seen[q] = true
	}
}

// TestRecycledQueuesStayIsolated closes a connection whose descriptors
// were dup'd and fork-copied, then opens connections that may reuse its
// queues. No descriptor of the first connection may read a later
// connection's bytes, its queues are recycled only once the last copy is
// closed, and closing ends twice never pools a queue twice.
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
	s1 := [2]*Socket{p.fds[c1].sock, p.fds[a1].sock}
	q1 := [2]*byteQueue{s1[0].peer.tx, s1[0].peer.rx}
	dup, err := k.Dup(p, c1)
	if err != nil {
		t.Fatal(err)
	}
	child, err := k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
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
	if len(k.net().free) != 0 {
		t.Fatal("queues recycled while a dup'd and a fork-copied descriptor still reach them")
	}

	// Connection 2 while copies of connection 1 are open: fresh queues.
	c2, a2 := connect(p)
	if q := p.fds[c2].sock.peer; q.tx == q1[0] || q.tx == q1[1] || q.rx == q1[0] || q.rx == q1[1] {
		t.Fatal("connection 2 reuses the queues of a connection that is still reachable")
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
	// one too), some twice: its two queues go back to the pool exactly
	// once, emptied, and only with the last copy.
	for i, c := range []struct {
		proc *Process
		fd   int
	}{{p, dup}, {child, c1}, {child, a1}, {p, dup}, {child, dup}} {
		if len(k.net().free) != 0 {
			t.Fatalf("queues recycled after only %d closes of connection 1's copies", i)
		}
		_ = k.Close(c.proc, c.fd)
	}
	checkPool(t, k)
	if len(k.net().free) != 2 {
		t.Fatalf("pool holds %d queues after connection 1's last descriptor closed, want 2", len(k.net().free))
	}

	// Connection 3 takes connection 1's queues, and starts empty.
	c3, a3 := connect(p)
	q3 := p.fds[c3].sock.peer
	if !(q3.tx == q1[0] || q3.tx == q1[1]) || !(q3.rx == q1[0] || q3.rx == q1[1]) {
		t.Fatal("connection 3 did not reuse the recycled queues")
	}
	for _, fd := range []int{c3, a3} {
		if n, err := k.Recvfrom(p, fd, buf); !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("a fresh connection on recycled queues read %q, %v; want nothing", buf[:max(n, 0)], err)
		}
	}
	if _, err := k.Sendto(p, c3, []byte("third")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sendto(p, a3, []byte("third")); err != nil {
		t.Fatal(err)
	}
	// A stale handle on connection 1's sockets is detached from the
	// queues connection 3 now uses.
	for _, s := range s1 {
		if s.peer != nil {
			t.Fatal("a released socket of connection 1 still holds its connection")
		}
	}
	// Every descriptor of connection 1 is gone; connection 2's ends still
	// see only their own bytes.
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
	// both ends closed twice still pool each queue once.
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
		checkPool(t, k)
	}
	if got := len(k.net().free) - before; got != 4 {
		t.Fatalf("closing a socketpair and connection 3 pooled %d queues, want 4", got)
	}
}

package kernel

import (
	"errors"
	"fmt"
)

// The network stack is a loopback-only socket layer: enough surface for the
// paper's server workloads (lighttpd/NGINX-style HTTP over AF_INET stream
// sockets, memcached's text protocol) and the audited network syscalls of
// Table 5's ruleset. The simulation is synchronous, so "blocking" reads on
// an empty queue return ErrWouldBlock and the load drivers interleave
// client and server steps.

// Socket domains and types (Linux numbering).
const (
	AFInet     = 2
	AFUnix     = 1
	SockStream = 1
	SockDgram  = 2
)

// Network errors.
var (
	ErrWouldBlock   = errors.New("operation would block")
	ErrNotConnected = errors.New("socket not connected")
	ErrInUse        = errors.New("address in use")
	ErrRefused      = errors.New("connection refused")
	ErrClosed       = errors.New("connection closed")
)

// Socket is one endpoint.
type Socket struct {
	Domain, Type int
	port         int
	listening    bool
	backlog      []*conn
	peer         *conn // established connection, from this side's view
	// refs counts the descriptors, in every process, that name this
	// socket: dup'd and fork-copied descriptors share it.
	refs int
}

// conn is one direction-pair of byte queues.
type conn struct {
	tx, rx *byteQueue
	closed bool
	remote *conn
	// owner is the socket this end was made for; nil while the conn
	// waits in a listener's backlog and once its queues are recycled.
	owner *Socket
}

type byteQueue struct{ buf []byte }

func (q *byteQueue) write(b []byte) int {
	q.buf = append(q.buf, b...)
	return len(b)
}

// read copies queued bytes into b. A drained queue restarts at the front
// of its buffer, so a request/response exchange reuses the same capacity.
func (q *byteQueue) read(b []byte) int {
	n := copy(b, q.buf)
	if n == len(q.buf) {
		q.buf = q.buf[:0]
	} else {
		q.buf = q.buf[n:]
	}
	return n
}

func (q *byteQueue) len() int { return len(q.buf) }

// The recycled-queue pool keeps at most maxFreeQueues queues, each with
// at most maxFreeQueueCap bytes of capacity; a queue past either bound is
// left to the garbage collector.
const (
	maxFreeQueues   = 64
	maxFreeQueueCap = 64 << 10
)

// netStack is the kernel's loopback fabric.
type netStack struct {
	listeners map[int]*Socket // port → listening socket
	// free holds the queues of connections no descriptor can reach any
	// more, emptied, for the next connection to reuse.
	free []*byteQueue
}

// queue returns an empty queue, recycled when the pool has one.
func (n *netStack) queue() *byteQueue {
	if k := len(n.free); k > 0 {
		q := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return q
	}
	return &byteQueue{}
}

// pair builds a connection's two ends over two queues, owned by a and b
// (nil for an end still in a listener's backlog).
func (n *netStack) pair(a, b *Socket) (ca, cb *conn) {
	a2b, b2a := n.queue(), n.queue()
	ca = &conn{tx: a2b, rx: b2a, owner: a}
	cb = &conn{tx: b2a, rx: a2b, owner: b}
	ca.remote, cb.remote = cb, ca
	return ca, cb
}

// release drops one descriptor's reference to s. Once no descriptor in
// any process names either end of s's connection, nothing can reach its
// queues: they go back to the pool, and both ends are detached so the
// same queues can never be released twice.
func (n *netStack) release(s *Socket) {
	s.refs--
	c := s.peer
	if s.refs > 0 || c == nil {
		return
	}
	// The far end must be accepted, unreferenced and still connected
	// here (a socket that connected again left this connection behind).
	r := c.remote
	if r.owner == nil || r.owner.refs > 0 || r.owner.peer != r {
		return
	}
	r.owner.peer, s.peer = nil, nil
	c.owner, r.owner = nil, nil
	for _, q := range [2]*byteQueue{c.tx, c.rx} {
		if len(n.free) < maxFreeQueues && cap(q.buf) <= maxFreeQueueCap {
			q.buf = q.buf[:0]
			n.free = append(n.free, q)
		}
	}
}

func (k *Kernel) net() *netStack {
	if k.netstack == nil {
		k.netstack = &netStack{listeners: make(map[int]*Socket)}
	}
	return k.netstack
}

// bindSocket attaches a socket to a port.
func (n *netStack) bind(s *Socket, port int) error {
	if _, busy := n.listeners[port]; busy {
		return ErrInUse
	}
	s.port = port
	return nil
}

func (n *netStack) listen(s *Socket) error {
	if s.port == 0 {
		return ErrInval
	}
	s.listening = true
	n.listeners[s.port] = s
	return nil
}

// connect establishes a loopback connection to a listening port, producing
// the client-side conn; the server side lands in the listener's backlog.
func (n *netStack) connect(s *Socket, port int) error {
	l, ok := n.listeners[port]
	if !ok || !l.listening {
		return ErrRefused
	}
	client, server := n.pair(s, nil)
	s.peer = client
	l.backlog = append(l.backlog, server)
	return nil
}

// accept pops one pending connection as a fresh socket.
func (n *netStack) accept(l *Socket) (*Socket, error) {
	if !l.listening {
		return nil, ErrInval
	}
	if len(l.backlog) == 0 {
		return nil, ErrWouldBlock
	}
	// Shift the backlog down rather than re-slicing its front away, so
	// the next connect appends into the same array.
	c := l.backlog[0]
	k := copy(l.backlog, l.backlog[1:])
	l.backlog[k] = nil
	l.backlog = l.backlog[:k]
	s := &Socket{Domain: l.Domain, Type: l.Type, peer: c}
	c.owner = s
	return s, nil
}

func (s *Socket) send(b []byte) (int, error) {
	if s.peer == nil {
		return 0, ErrNotConnected
	}
	if s.peer.closed || s.peer.remote.closed {
		return 0, ErrClosed
	}
	return s.peer.tx.write(b), nil
}

func (s *Socket) recv(b []byte) (int, error) {
	if s.peer == nil {
		return 0, ErrNotConnected
	}
	if s.peer.rx.len() == 0 {
		if s.peer.remote.closed {
			return 0, nil // orderly EOF
		}
		return 0, ErrWouldBlock
	}
	return s.peer.rx.read(b), nil
}

// closeSocket shuts the endpoint down.
func (n *netStack) close(s *Socket) {
	if s.listening {
		delete(n.listeners, s.port)
		s.listening = false
	}
	if s.peer != nil {
		s.peer.closed = true
	}
}

func (s *Socket) String() string {
	return fmt.Sprintf("socket(domain=%d type=%d port=%d)", s.Domain, s.Type, s.port)
}

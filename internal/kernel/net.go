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
}

// conn is one direction-pair of byte queues.
type conn struct {
	tx, rx *byteQueue
	closed bool
	remote *conn
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

// pair builds a connection's two ends over two queues.
func (n *netStack) pair() (ca, cb *conn) {
	a2b, b2a := n.queue(), n.queue()
	ca = &conn{tx: a2b, rx: b2a}
	cb = &conn{tx: b2a, rx: a2b}
	ca.remote, cb.remote = cb, ca
	return ca, cb
}

// release frees what s holds once its last descriptor is gone: a
// listener leaves the port and closes the ends still in its backlog, and
// a connected end is closed. s lets go of its connection either way.
func (n *netStack) release(s *Socket) {
	if s.listening {
		delete(n.listeners, s.port)
		for _, c := range s.backlog {
			n.closeEnd(c)
		}
		s.listening, s.backlog = false, nil
	}
	if s.peer != nil {
		n.closeEnd(s.peer)
		s.peer = nil
	}
}

// closeEnd closes one end of a connection; the peer reads EOF. Each end
// closes once, and the second to close sends the two queues, which no
// descriptor can reach any more, back to the pool.
func (n *netStack) closeEnd(c *conn) {
	c.closed = true
	if !c.remote.closed {
		return
	}
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

// bind attaches an unbound socket to a port.
func (n *netStack) bind(s *Socket, port int) error {
	if s.port != 0 {
		return ErrInval
	}
	if _, busy := n.listeners[port]; busy {
		return ErrInUse
	}
	s.port = port
	return nil
}

// listen registers s as its port's listener. Binding does not reserve a
// port, so of two sockets bound to one port only the first to listen gets
// it.
func (n *netStack) listen(s *Socket) error {
	if s.port == 0 {
		return ErrInval
	}
	if l, busy := n.listeners[s.port]; busy && l != s {
		return ErrInUse
	}
	s.listening = true
	n.listeners[s.port] = s
	return nil
}

// connect establishes a loopback connection to a listening port, producing
// the client-side conn; the server side lands in the listener's backlog.
func (n *netStack) connect(s *Socket, port int) error {
	if s.peer != nil || s.listening {
		return ErrInval
	}
	l, ok := n.listeners[port]
	if !ok || !l.listening {
		return ErrRefused
	}
	client, server := n.pair()
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
	return &Socket{Domain: l.Domain, Type: l.Type, peer: c}, nil
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

func (s *Socket) String() string {
	return fmt.Sprintf("socket(domain=%d type=%d port=%d)", s.Domain, s.Type, s.port)
}

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

// Socket is one endpoint. It lives as long as the FD that names it, and
// release recycles it when that FD's last descriptor goes.
type Socket struct {
	Domain, Type int
	port         int
	listening    bool
	backlog      []*conn
	peer         *conn // established connection, from this side's view
}

// connection is one loopback stream: its two ends and the two queues
// between them, built, closed and recycled as one object. The ends'
// pointers into it are set once, when it is built.
type connection struct {
	end [2]conn
	q   [2]byteQueue
}

// conn is one end of a connection: it sends on tx and receives on rx.
type conn struct {
	tx, rx *byteQueue
	closed bool
	remote *conn
	of     *connection
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

// The recycle pools are bounded. The connection pool keeps at most
// maxFreeConns connections (64 queues), and a pooled queue keeps at most
// maxFreeQueueCap bytes of capacity: a larger buffer is left to the
// garbage collector. The socket pool keeps at most maxFreeSockets sockets
// and the kernel's FD pool at most maxFreeFDs FDs. Each pool is made with
// its bound as capacity, so recycling never grows it.
const (
	maxFreeConns    = 32
	maxFreeQueueCap = 64 << 10
	maxFreeSockets  = 64
	maxFreeFDs      = 64
)

// reuse pops the most recently pooled object, or returns nil when the
// pool is empty.
func reuse[T any](pool *[]*T) *T {
	k := len(*pool)
	if k == 0 {
		return nil
	}
	x := (*pool)[k-1]
	(*pool)[k-1] = nil
	*pool = (*pool)[:k-1]
	return x
}

// netStack is the kernel's loopback fabric.
type netStack struct {
	listeners map[int]*Socket // port → listening socket
	// free holds connections no descriptor can reach any more, both ends
	// open again and both queues empty, for the next connection to reuse.
	free []*connection
	// sockets holds released sockets, cleared, for the next socket.
	sockets []*Socket
}

// socket returns a cleared socket, recycled when the pool has one.
func (n *netStack) socket() *Socket {
	if s := reuse(&n.sockets); s != nil {
		return s
	}
	return &Socket{}
}

// pair returns the two ends of a new connection, recycled when the pool
// has one.
func (n *netStack) pair() (ca, cb *conn) {
	c := reuse(&n.free)
	if c == nil {
		c = &connection{}
		a, b := &c.end[0], &c.end[1]
		a.tx, a.rx, a.remote, a.of = &c.q[0], &c.q[1], b, c
		b.tx, b.rx, b.remote, b.of = &c.q[1], &c.q[0], a, c
	}
	return &c.end[0], &c.end[1]
}

// release frees s once its last descriptor is gone: a listener leaves
// the port and closes the ends still in its backlog, a connected end is
// closed, and s itself is cleared and kept for reuse.
func (n *netStack) release(s *Socket) {
	if s.listening {
		delete(n.listeners, s.port)
		for _, c := range s.backlog {
			n.closeEnd(c)
		}
	}
	if s.peer != nil {
		n.closeEnd(s.peer)
	}
	*s = Socket{}
	if len(n.sockets) < maxFreeSockets {
		n.sockets = append(n.sockets, s)
	}
}

// closeEnd closes one end of a connection; the peer reads EOF. Each end
// closes once, and the second to close sends the whole connection, which
// no descriptor can reach any more, back to the pool.
func (n *netStack) closeEnd(c *conn) {
	c.closed = true
	if !c.remote.closed || len(n.free) >= maxFreeConns {
		return
	}
	whole := c.of
	for i := range whole.q {
		if q := &whole.q[i]; cap(q.buf) > maxFreeQueueCap {
			q.buf = nil
		} else {
			q.buf = q.buf[:0]
		}
	}
	whole.end[0].closed, whole.end[1].closed = false, false
	n.free = append(n.free, whole)
}

func (k *Kernel) net() *netStack {
	if k.netstack == nil {
		k.netstack = &netStack{
			listeners: make(map[int]*Socket),
			free:      make([]*connection, 0, maxFreeConns),
			sockets:   make([]*Socket, 0, maxFreeSockets),
		}
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

// accept pops the server end of one pending connection.
func (n *netStack) accept(l *Socket) (*conn, error) {
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
	return c, nil
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

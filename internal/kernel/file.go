package kernel

// FD is an open file: what a descriptor names. Exactly one of ino, sock
// or pipe is set. Dup'd and fork-inherited descriptors name the same FD,
// so they share its offset, as POSIX's open file description does.
//
// An FD is recycled: the last descriptor to go hands it to freeFD, which
// clears it for the next open file (newFD). A socket descriptor's Socket
// has the same lifetime and is recycled at the same point, by the network
// stack.
type FD struct {
	Path  string
	Flags int

	ino  *Inode
	off  int64
	sock *Socket
	pipe *pipeEnd
	// refs counts the descriptor slots, in every process, that name this
	// FD; the last one to go releases it.
	refs int
}

// newFD returns a cleared FD, recycled when the kernel's pool has one.
func (k *Kernel) newFD() *FD {
	if f := reuse(&k.freeFDs); f != nil {
		return f
	}
	return &FD{}
}

// freeFD clears an FD that no descriptor names any more, and keeps it for
// reuse while the pool has room.
func (k *Kernel) freeFD(f *FD) {
	*f = FD{}
	if len(k.freeFDs) < maxFreeFDs {
		k.freeFDs = append(k.freeFDs, f)
	}
}

// socketFD returns an FD for a new socket whose established end, if any,
// is peer.
func (k *Kernel) socketFD(path string, domain, typ int, peer *conn) *FD {
	s := k.net().socket()
	s.Domain, s.Type, s.peer = domain, typ, peer
	f := k.newFD()
	f.Path, f.sock = path, s
	return f
}

// Open flags (Linux numbering for the common subset).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OExcl   = 0x80
	OTrunc  = 0x200
	OAppend = 0x400
)

// Protection bits for mmap/mprotect.
const (
	ProtNone  uint64 = 0
	ProtRead  uint64 = 1
	ProtWrite uint64 = 2
	ProtExec  uint64 = 4
)

// Whence values for lseek.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// pipeEnd is one half of a pipe.
type pipeEnd struct {
	q        *byteQueue
	readSide bool
	peer     *pipeEnd
	closed   bool
}

func (f *FD) readable() bool { return f.Flags&0x3 != OWronly }
func (f *FD) writable() bool { return f.Flags&0x3 != ORdonly }

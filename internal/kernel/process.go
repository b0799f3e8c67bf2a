package kernel

import (
	"fmt"

	"veil/internal/mm"
	"veil/internal/snp"
)

// User-space layout constants.
const (
	// UserMmapBase is where anonymous mappings start.
	UserMmapBase = 0x0000_2000_0000
	// UserBinBase is where installed binaries (and enclave images) load.
	UserBinBase = 0x0000_0040_0000
)

// Process is one user task: an FD table and, when the task maps memory, a
// real page-table tree over kernel-allocated frames.
type Process struct {
	PID  int
	Name string
	UID  int

	k  *Kernel
	as *mm.AddressSpace
	// fds is the descriptor table, indexed by descriptor number: MaxFD
	// slots, sized when the process is created, nil where no descriptor
	// is open. nfds counts the open ones.
	fds      []*FD
	nfds     int
	mmapNext uint64
	frames   map[uint64][]uint64 // virt base → data frames
	regions  map[uint64]uint64   // virt base → length

	// Enclave is set by the Veil enclave module when this process hosts
	// an enclave; the kernel treats the region specially on memory ops.
	Enclave EnclaveBinding

	exited   bool
	exitCode int
}

// EnclaveBinding is the kernel-visible part of a process's enclave: enough
// for the kernel to route memory-permission changes to VeilS-Enc (§6.2)
// without knowing anything else about the enclave.
type EnclaveBinding interface {
	// Covers reports whether [virt, virt+len) intersects enclave memory.
	Covers(virt, length uint64) bool
	// SyncPermissions mirrors a non-enclave permission change into the
	// protected enclave page tables.
	SyncPermissions(virt, length uint64, prot uint64) error
}

// Spawn creates a new process whose descriptors 0, 1 and 2 are the
// console.
func (k *Kernel) Spawn(name string) *Process {
	p := k.newProcess(name)
	if console, err := k.vfs.Lookup("/dev/console"); err == nil {
		p.placeFD(0, &FD{Path: "/dev/console", Flags: ORdonly, ino: console})
		p.placeFD(1, &FD{Path: "/dev/console", Flags: OWronly | OAppend, ino: console})
		p.placeFD(2, &FD{Path: "/dev/console", Flags: OWronly | OAppend, ino: console})
	}
	return p
}

// newProcess creates a process with an empty descriptor table: Spawn
// gives it the console, Fork its parent's descriptors.
func (k *Kernel) newProcess(name string) *Process {
	p := &Process{
		PID:      k.nextPID,
		Name:     name,
		k:        k,
		fds:      make([]*FD, MaxFD),
		mmapNext: UserMmapBase,
		frames:   make(map[uint64][]uint64),
		regions:  make(map[uint64]uint64),
	}
	k.nextPID++
	k.procs[p.PID] = p
	return p
}

// AddressSpace lazily creates the process page tables.
func (p *Process) AddressSpace() (*mm.AddressSpace, error) {
	if p.as == nil {
		as, err := mm.NewAddressSpace(p.k.m, p.k.cfg.VMPL, p.k)
		if err != nil {
			return nil, err
		}
		p.as = as
	}
	return p.as, nil
}

// Mem returns a user-ring access context for the process's memory.
func (p *Process) Mem() (snp.AccessContext, error) {
	as, err := p.AddressSpace()
	if err != nil {
		return snp.AccessContext{}, err
	}
	return as.Context(snp.CPL3), nil
}

// MaxFD bounds descriptor numbers: a process holds descriptors 0 to
// MaxFD-1. It is Linux's default soft RLIMIT_NOFILE, and the bound the
// enclave SDK's Iago check holds a returned descriptor to.
const MaxFD = 1024

// fdRoom refuses with EMFILE unless n descriptor slots are free. Every
// call that installs a new descriptor asks it before it builds anything,
// so installFD always finds a free slot.
func (p *Process) fdRoom(n int) error {
	if p.nfds > MaxFD-n {
		return ErrMFile
	}
	return nil
}

// lookupFD returns the open file descriptor fd names, if any.
func (p *Process) lookupFD(fd int) (*FD, bool) {
	if uint(fd) >= uint(len(p.fds)) {
		return nil, false
	}
	f := p.fds[fd]
	return f, f != nil
}

// installFD puts f at the lowest free descriptor number, as POSIX asks of
// open, socket, accept, dup and pipe, and returns that number.
func (p *Process) installFD(f *FD) int {
	fd := 0
	for p.fds[fd] != nil {
		fd++
	}
	p.placeFD(fd, f)
	return fd
}

// placeFD puts f at descriptor number fd, dropping whatever was there.
func (p *Process) placeFD(fd int, f *FD) {
	f.refs++
	p.dropFD(fd)
	p.fds[fd] = f
	p.nfds++
}

// dropFD removes descriptor fd. It is the one path by which a descriptor
// goes (close, dup2 over an open slot, exit), and the last descriptor
// naming an FD releases it: a socket goes back to the network stack's
// pool, and so does a connection once both its ends are closed; a pipe
// end is marked closed so its peer sees EOF or EPIPE; and the FD itself
// goes back to the kernel's FD pool.
func (p *Process) dropFD(fd int) {
	f := p.fds[fd]
	if f == nil {
		return
	}
	p.fds[fd] = nil
	p.nfds--
	if f.refs--; f.refs > 0 {
		return
	}
	switch {
	case f.sock != nil:
		p.k.net().release(f.sock)
	case f.pipe != nil:
		f.pipe.closed = true
	}
	p.k.freeFD(f)
}

// protFlags converts PROT_* bits to PTE flags.
func protFlags(prot uint64) uint64 {
	flags := snp.PTEUser
	if prot&ProtWrite != 0 {
		flags |= snp.PTEWrite
	}
	if prot&ProtExec == 0 {
		flags |= snp.PTENX
	}
	return flags
}

// MapRegion allocates frames and maps [virt, virt+length) with prot. It is
// the engine under mmap and the enclave installer.
func (p *Process) MapRegion(virt, length uint64, prot uint64) error {
	if virt%snp.PageSize != 0 {
		return ErrInval
	}
	length = (length + snp.PageSize - 1) &^ uint64(snp.PageSize-1)
	if length == 0 {
		return ErrInval
	}
	as, err := p.AddressSpace()
	if err != nil {
		return err
	}
	var pages []uint64
	for off := uint64(0); off < length; off += snp.PageSize {
		frame, err := p.k.AllocFrame()
		if err == nil {
			pages = append(pages, frame)
			err = as.Map(virt+off, frame, protFlags(prot))
		}
		if err != nil {
			// Hand back every page this call took, so a failed mmap
			// leaves the frame pool as it found it.
			for o := uint64(0); o < off; o += snp.PageSize {
				as.Unmap(virt + o)
			}
			for _, f := range pages {
				p.k.FreeFrame(f)
			}
			return err
		}
	}
	p.frames[virt] = pages
	p.regions[virt] = length
	return nil
}

// UnmapRegion tears down a region created by MapRegion.
func (p *Process) UnmapRegion(virt uint64) error {
	length, ok := p.regions[virt]
	if !ok {
		return ErrInval
	}
	as, err := p.AddressSpace()
	if err != nil {
		return err
	}
	for off := uint64(0); off < length; off += snp.PageSize {
		if _, err := as.Unmap(virt + off); err != nil {
			return err
		}
	}
	for _, f := range p.frames[virt] {
		if err := p.k.FreeFrame(f); err != nil {
			return err
		}
	}
	delete(p.frames, virt)
	delete(p.regions, virt)
	return nil
}

// RegionFrames returns the frames backing the region at virt (enclave
// install path).
func (p *Process) RegionFrames(virt uint64) ([]uint64, bool) {
	f, ok := p.frames[virt]
	return f, ok
}

// Teardown releases all process resources (called by exit).
func (p *Process) teardown() error {
	for virt := range p.regions {
		if err := p.UnmapRegion(virt); err != nil {
			return err
		}
	}
	if p.as != nil {
		if err := p.as.Release(); err != nil {
			return err
		}
		p.as = nil
	}
	for fd := range p.fds {
		p.dropFD(fd)
	}
	delete(p.k.procs, p.PID)
	return nil
}

func (p *Process) String() string { return fmt.Sprintf("pid %d (%s)", p.PID, p.Name) }

package kernel

import (
	"errors"
	"maps"
	"slices"
	"testing"
)

// refTables is the reference descriptor table that FuzzProcessLifecycle
// drives in lockstep with the kernel's: per process, a map keyed by
// descriptor number, filled lowest free number first and bounded by MaxFD.
// A value names its open file by an id, so dup'd and fork-copied
// descriptors share one.
type refTables struct {
	t      *testing.T
	procs  map[*Process]map[int]refFile
	nextID int
}

// refFile is what the reference knows of an open file: its identity and
// which calls may use it without EBADF.
type refFile struct {
	id    int
	sock  bool
	read  bool
	write bool
}

func newRefTables(t *testing.T) *refTables {
	return &refTables{t: t, procs: map[*Process]map[int]refFile{}}
}

// file returns a new open file.
func (r *refTables) file(sock, read, write bool) refFile {
	r.nextID++
	return refFile{id: r.nextID, sock: sock, read: read, write: write}
}

// spawn gives p the console on descriptors 0, 1 and 2, as Spawn does.
func (r *refTables) spawn(p *Process) {
	r.procs[p] = map[int]refFile{
		0: r.file(false, true, false),
		1: r.file(false, false, true),
		2: r.file(false, false, true),
	}
}

// fork gives child a copy of parent's table.
func (r *refTables) fork(parent, child *Process) {
	r.procs[child] = maps.Clone(r.procs[parent])
}

// lowest returns the n lowest free numbers of p's table, or nil when
// fewer than n are free.
func (r *refTables) lowest(p *Process, n int) []int {
	table := r.procs[p]
	if len(table) > MaxFD-n {
		return nil
	}
	fds := make([]int, 0, n)
	for fd := 0; len(fds) < n; fd++ {
		if _, open := table[fd]; !open {
			fds = append(fds, fd)
		}
	}
	return fds
}

// usable reports whether fd names an open file of p that ok accepts.
func (r *refTables) usable(p *Process, fd int, ok func(refFile) bool) bool {
	f, open := r.procs[p][fd]
	return open && ok(f)
}

func anyFile(refFile) bool    { return true }
func isSock(f refFile) bool   { return f.sock }
func canRead(f refFile) bool  { return f.read }
func canWrite(f refFile) bool { return f.write }

// use checks a call on descriptor fd: it fails with EBADF exactly when
// the reference says fd is not open or not fit for the call.
func (r *refTables) use(name string, p *Process, fd int, ok func(refFile) bool, err error) {
	r.t.Helper()
	if bad := !r.usable(p, fd, ok); bad != errors.Is(err, ErrBadFD) {
		r.t.Fatalf("%s(%d) = %v; the reference table says EBADF is %v", name, fd, err, bad)
	}
}

// install checks a call that installs len(files) descriptors in p and
// records them: a success returns the lowest free numbers, and EMFILE
// comes exactly when fewer are free. Any other refusal changes nothing.
func (r *refTables) install(name string, p *Process, got []int, err error, files ...refFile) {
	r.t.Helper()
	want := r.lowest(p, len(files))
	switch {
	case want == nil:
		if !errors.Is(err, ErrMFile) {
			r.t.Fatalf("%s with %d slots free = %v, %v; want EMFILE", name, MaxFD-len(r.procs[p]), got, err)
		}
	case err == nil:
		if !slices.Equal(got, want) {
			r.t.Fatalf("%s = %v; want the lowest free numbers %v", name, got, want)
		}
		for i, fd := range got {
			r.procs[p][fd] = files[i]
		}
	case errors.Is(err, ErrMFile) || errors.Is(err, ErrBadFD):
		r.t.Fatalf("%s with %d slots free = %v", name, MaxFD-len(r.procs[p]), err)
	}
}

// dup checks dup(2) of fd: EBADF first, then install.
func (r *refTables) dup(p *Process, fd, got int, err error) {
	r.t.Helper()
	r.use("dup", p, fd, anyFile, err)
	if r.usable(p, fd, anyFile) {
		r.install("dup", p, []int{got}, err, r.procs[p][fd])
	}
}

// dupTo checks dup2(2) or dup3(2) of fd onto newfd: EBADF for a newfd
// outside [0, MaxFD) or an fd not open, otherwise newfd names fd's file.
func (r *refTables) dupTo(name string, p *Process, fd, newfd, got int, err error) {
	r.t.Helper()
	f, open := r.procs[p][fd]
	if newfd < 0 || newfd >= MaxFD || !open {
		if !errors.Is(err, ErrBadFD) {
			r.t.Fatalf("%s(%d, %d) = %d, %v; want EBADF", name, fd, newfd, got, err)
		}
		return
	}
	if err != nil || got != newfd {
		r.t.Fatalf("%s(%d, %d) = %d, %v; want %d", name, fd, newfd, got, err, newfd)
	}
	r.procs[p][newfd] = f
}

// close checks close(2): EBADF exactly when fd is not open.
func (r *refTables) close(p *Process, fd int, err error) {
	r.t.Helper()
	r.use("close", p, fd, anyFile, err)
	delete(r.procs[p], fd)
}

// compare fails unless every process's kernel table holds the reference's
// descriptor numbers, no more than MaxFD slots, and descriptors that share
// an open file in one exactly where they share one in the other.
func (r *refTables) compare(procs []*Process) {
	r.t.Helper()
	if len(procs) != len(r.procs) {
		r.t.Fatalf("%d processes live, the reference has %d", len(procs), len(r.procs))
	}
	byFD, byID := map[*FD]int{}, make([]*FD, r.nextID+1)
	for _, p := range procs {
		table, ok := r.procs[p]
		if !ok {
			r.t.Fatalf("%v has no reference table", p)
		}
		open := 0
		for fd, f := range p.fds {
			if f == nil {
				continue
			}
			open++
			want, ok := table[fd]
			if !ok {
				r.t.Fatalf("%v fd %d is open; the reference has it closed", p, fd)
			}
			if (f.sock != nil) != want.sock {
				r.t.Fatalf("%v fd %d: kernel socket %v, reference socket %v", p, fd, f.sock != nil, want.sock)
			}
			if id, seen := byFD[f]; seen && id != want.id {
				r.t.Fatalf("%v fd %d shares an open file the reference keeps apart", p, fd)
			}
			if g := byID[want.id]; g != nil && g != f {
				r.t.Fatalf("%v fd %d names a different open file from the reference's other copies", p, fd)
			}
			byFD[f], byID[want.id] = want.id, f
		}
		// Every open slot is in the reference, so equal counts make the
		// two sets equal.
		if len(p.fds) > MaxFD || open != len(table) || p.nfds != open {
			r.t.Fatalf("%v: %d slots, %d open (nfds %d); the reference has %d open", p, len(p.fds), open, p.nfds, len(table))
		}
	}
}

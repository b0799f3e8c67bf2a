package kernel

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
)

// VFS is the kernel's in-memory filesystem. It stands in for the paper's
// VIRTIO-backed guest disk: workloads exercise the same syscall surface
// (open/read/write/rename/...) with deterministic contents.
type VFS struct {
	root *Inode
}

// Inode is one filesystem object.
type Inode struct {
	Name     string
	Dir      bool
	Mode     uint32
	Data     []byte
	Children map[string]*Inode
	Symlink  string // non-empty for symlinks
	Nlink    int
}

// Filesystem errors (errno analogues).
var (
	ErrNotExist = errors.New("no such file or directory")
	ErrExist    = errors.New("file exists")
	ErrNotDir   = errors.New("not a directory")
	ErrIsDir    = errors.New("is a directory")
	ErrNotEmpty = errors.New("directory not empty")
	ErrInval    = errors.New("invalid argument")
	ErrBadFD    = errors.New("bad file descriptor")
	ErrLoop     = errors.New("too many levels of symbolic links")
	ErrFBig     = errors.New("file too large")
	ErrMFile    = errors.New("too many open files")
)

// MaxFileSize bounds one file of the model disk. A write or truncate that
// would grow a file past it fails with ErrFBig instead of allocating the
// bytes: the file contents live in host memory.
const MaxFileSize = 64 << 20

// NewVFS creates an empty filesystem with a root directory and the
// conventional top-level directories.
func NewVFS() *VFS {
	root := &Inode{Name: "/", Dir: true, Mode: 0o755, Children: map[string]*Inode{}, Nlink: 1}
	v := &VFS{root: root}
	for _, d := range []string{"/tmp", "/etc", "/var", "/var/log", "/dev", "/data"} {
		if err := v.Mkdir(d, 0o755); err != nil {
			panic(fmt.Sprintf("vfs init: %v", err))
		}
	}
	if _, err := v.Create("/dev/console", 0o666, false); err != nil {
		panic(fmt.Sprintf("vfs init: %v", err))
	}
	return v
}

// cleanAbs returns p as a clean absolute path. An already-clean absolute
// path comes back as it is, without allocating.
func cleanAbs(p string) string {
	if strings.HasPrefix(p, "/") {
		return path.Clean(p)
	}
	return path.Clean("/" + p)
}

// resolve walks to the inode for p, optionally following a trailing
// symlink. depth guards against symlink loops. The walk steps through the
// clean path's components in place; only a symlink builds a new path.
func (v *VFS) resolve(p string, followLast bool, depth int) (*Inode, error) {
	if depth > 8 {
		return nil, fmt.Errorf("%s: %w", p, ErrLoop)
	}
	cur := v.root
	c := cleanAbs(p)
	for start := 1; start < len(c); {
		end := strings.IndexByte(c[start:], '/')
		last := end < 0
		if last {
			end = len(c)
		} else {
			end += start
		}
		if !cur.Dir {
			return nil, fmt.Errorf("%s: %w", p, ErrNotDir)
		}
		child, ok := cur.Children[c[start:end]]
		if !ok {
			return nil, fmt.Errorf("%s: %w", p, ErrNotExist)
		}
		if child.Symlink != "" && (!last || followLast) {
			// c[:start] is the directory holding the link, c[end:] the
			// components after it.
			target := child.Symlink
			if !strings.HasPrefix(target, "/") {
				target = path.Join(c[:start], target)
			}
			return v.resolve(path.Join(target, c[end:]), followLast, depth+1)
		}
		cur = child
		start = end + 1
	}
	return cur, nil
}

// Lookup returns the inode at p, following symlinks.
func (v *VFS) Lookup(p string) (*Inode, error) { return v.resolve(p, true, 0) }

// lookupParent returns the parent directory and final name component.
func (v *VFS) lookupParent(p string) (*Inode, string, error) {
	c := cleanAbs(p)
	if c == "/" {
		return nil, "", fmt.Errorf("%s: %w", p, ErrInval)
	}
	slash := strings.LastIndexByte(c, '/')
	dirPath := c[:slash]
	if slash == 0 {
		dirPath = "/"
	}
	dir, err := v.resolve(dirPath, true, 0)
	if err != nil {
		return nil, "", err
	}
	if !dir.Dir {
		return nil, "", fmt.Errorf("%s: %w", dirPath, ErrNotDir)
	}
	return dir, c[slash+1:], nil
}

// Create makes a regular file, failing if it exists and excl is set.
func (v *VFS) Create(p string, mode uint32, excl bool) (*Inode, error) {
	dir, name, err := v.lookupParent(p)
	if err != nil {
		return nil, err
	}
	if existing, ok := dir.Children[name]; ok {
		if excl {
			return nil, fmt.Errorf("%s: %w", p, ErrExist)
		}
		if existing.Dir {
			return nil, fmt.Errorf("%s: %w", p, ErrIsDir)
		}
		return existing, nil
	}
	ino := &Inode{Name: name, Mode: mode, Nlink: 1}
	dir.Children[name] = ino
	return ino, nil
}

// Mkdir creates a directory.
func (v *VFS) Mkdir(p string, mode uint32) error {
	dir, name, err := v.lookupParent(p)
	if err != nil {
		return err
	}
	if _, ok := dir.Children[name]; ok {
		return fmt.Errorf("%s: %w", p, ErrExist)
	}
	dir.Children[name] = &Inode{Name: name, Dir: true, Mode: mode, Children: map[string]*Inode{}, Nlink: 1}
	return nil
}

// Remove unlinks a file or empty directory.
func (v *VFS) Remove(p string) error {
	dir, name, err := v.lookupParent(p)
	if err != nil {
		return err
	}
	child, ok := dir.Children[name]
	if !ok {
		return fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	if child.Dir && len(child.Children) > 0 {
		return fmt.Errorf("%s: %w", p, ErrNotEmpty)
	}
	child.Nlink--
	delete(dir.Children, name)
	return nil
}

// Rename moves oldp to newp, replacing a non-directory target.
func (v *VFS) Rename(oldp, newp string) error {
	odir, oname, err := v.lookupParent(oldp)
	if err != nil {
		return err
	}
	ino, ok := odir.Children[oname]
	if !ok {
		return fmt.Errorf("%s: %w", oldp, ErrNotExist)
	}
	ndir, nname, err := v.lookupParent(newp)
	if err != nil {
		return err
	}
	if tgt, ok := ndir.Children[nname]; ok && tgt.Dir {
		return fmt.Errorf("%s: %w", newp, ErrIsDir)
	}
	delete(odir.Children, oname)
	ino.Name = nname
	ndir.Children[nname] = ino
	return nil
}

// Link creates a hard link newp → the inode at oldp.
func (v *VFS) Link(oldp, newp string) error {
	ino, err := v.Lookup(oldp)
	if err != nil {
		return err
	}
	if ino.Dir {
		return fmt.Errorf("%s: %w", oldp, ErrIsDir)
	}
	dir, name, err := v.lookupParent(newp)
	if err != nil {
		return err
	}
	if _, ok := dir.Children[name]; ok {
		return fmt.Errorf("%s: %w", newp, ErrExist)
	}
	ino.Nlink++
	dir.Children[name] = ino
	return nil
}

// Symlink creates a symbolic link at newp pointing to target.
func (v *VFS) Symlink(target, newp string) error {
	dir, name, err := v.lookupParent(newp)
	if err != nil {
		return err
	}
	if _, ok := dir.Children[name]; ok {
		return fmt.Errorf("%s: %w", newp, ErrExist)
	}
	dir.Children[name] = &Inode{Name: name, Symlink: target, Mode: 0o777, Nlink: 1}
	return nil
}

// ReadDir returns the sorted child names of the directory at p.
func (v *VFS) ReadDir(p string) ([]string, error) {
	ino, err := v.Lookup(p)
	if err != nil {
		return nil, err
	}
	if !ino.Dir {
		return nil, fmt.Errorf("%s: %w", p, ErrNotDir)
	}
	names := make([]string, 0, len(ino.Children))
	for n := range ino.Children {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Truncate resizes the file at p.
func (v *VFS) Truncate(p string, size int64) error {
	ino, err := v.Lookup(p)
	if err != nil {
		return err
	}
	return ino.Truncate(size)
}

// Truncate resizes an inode's data.
func (i *Inode) Truncate(size int64) error {
	if i.Dir {
		return fmt.Errorf("%s: %w", i.Name, ErrIsDir)
	}
	if size < 0 {
		return ErrInval
	}
	if size > MaxFileSize {
		return fmt.Errorf("%s: %w", i.Name, ErrFBig)
	}
	if int64(len(i.Data)) >= size {
		i.Data = i.Data[:size]
		return nil
	}
	i.grow(size)
	return nil
}

// ReadAt copies file bytes at off into buf, returning the count.
func (i *Inode) ReadAt(buf []byte, off int64) int {
	if i.Dir || off < 0 || off >= int64(len(i.Data)) {
		return 0
	}
	return copy(buf, i.Data[off:])
}

// WriteAt writes buf at off, growing the file as needed, up to
// MaxFileSize.
func (i *Inode) WriteAt(buf []byte, off int64) (int, error) {
	if i.Dir || off < 0 {
		return 0, nil
	}
	if off > MaxFileSize-int64(len(buf)) {
		return 0, fmt.Errorf("%s: %w", i.Name, ErrFBig)
	}
	if need := off + int64(len(buf)); need > int64(len(i.Data)) {
		i.grow(need)
	}
	return copy(i.Data[off:], buf), nil
}

// grow extends Data to n bytes (at most MaxFileSize), zero past the old
// length. A reallocation at least doubles the capacity, capped at
// MaxFileSize, so a file built by small appends is copied about log2(size)
// times; Data stays one contiguous slice.
func (i *Inode) grow(n int64) {
	if n <= int64(cap(i.Data)) {
		old := len(i.Data)
		i.Data = i.Data[:n]
		clear(i.Data[old:])
		return
	}
	d := make([]byte, n, min(max(n, 2*int64(cap(i.Data))), MaxFileSize))
	copy(d, i.Data)
	i.Data = d
}

// Size returns the file length.
func (i *Inode) Size() int64 { return int64(len(i.Data)) }

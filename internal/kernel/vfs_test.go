package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"strings"
	"testing"
)

// splitPath and refResolve are the path walk the VFS used before it
// stepped through clean paths in place: clean, split, walk the parts. They
// are the reference the differential tests hold the walk to.
func splitPath(p string) []string {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

func (v *VFS) refResolve(p string, followLast bool, depth int) (*Inode, error) {
	if depth > 8 {
		return nil, fmt.Errorf("%s: %w", p, ErrLoop)
	}
	cur := v.root
	parts := splitPath(p)
	for i, part := range parts {
		if !cur.Dir {
			return nil, fmt.Errorf("%s: %w", p, ErrNotDir)
		}
		child, ok := cur.Children[part]
		if !ok {
			return nil, fmt.Errorf("%s: %w", p, ErrNotExist)
		}
		last := i == len(parts)-1
		if child.Symlink != "" && (!last || followLast) {
			target := child.Symlink
			if !strings.HasPrefix(target, "/") {
				target = path.Join("/", path.Join(append(parts[:i:i], target)...))
			}
			rest := path.Join(parts[i+1:]...)
			return v.refResolve(path.Join(target, rest), followLast, depth+1)
		}
		cur = child
	}
	return cur, nil
}

func (v *VFS) refLookupParent(p string) (*Inode, string, error) {
	parts := splitPath(p)
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("%s: %w", p, ErrInval)
	}
	dirPath := "/" + strings.Join(parts[:len(parts)-1], "/")
	dir, err := v.refResolve(dirPath, true, 0)
	if err != nil {
		return nil, "", err
	}
	if !dir.Dir {
		return nil, "", fmt.Errorf("%s: %w", dirPath, ErrNotDir)
	}
	return dir, parts[len(parts)-1], nil
}

// walkTree builds a small tree with directories, a file, and absolute,
// relative, dangling, looping and file-targeting symlinks.
func walkTree(t testing.TB) *VFS {
	v := NewVFS()
	for _, d := range []string{"/a", "/a/b", "/a/b/c", "/x"} {
		if err := v.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Create("/a/b/file", 0o644, true); err != nil {
		t.Fatal(err)
	}
	for _, l := range [][2]string{
		{"/a/b/c", "/abs"},     // absolute, to a directory
		{"b/c", "/a/rel"},      // relative, resolved in /a
		{"../x", "/a/b/up"},    // relative, climbing out
		{"../../..", "/a/b/r"}, // climbing past the root
		{"file", "/a/b/flink"}, // to a regular file
		{"/nowhere", "/dang"},  // dangling
		{"/loop2", "/loop1"},   // a loop
		{"/loop1", "/loop2"},
		{".", "/a/dot"},     // to its own directory
		{"/a/rel/..", "/z"}, // through another link
	} {
		if err := v.Symlink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// walkSeeds are paths that exercise every branch of the walk.
var walkSeeds = []string{
	"", "/", "//", ".", "..", "/..", "/.", "a", "a/b", "/a/b/c", "/a/b/c/",
	"//a//b//c", "/a/./b/../b/c", "/a/b/c/..", "/a/b/file", "/a/b/file/",
	"/a/b/file/x", "/a/b/missing", "/missing/x", "/abs", "/abs/", "/abs/..",
	"/a/rel", "/a/rel/x", "/a/b/up", "/a/b/up/", "/a/b/r", "/a/b/r/a",
	"/a/b/flink", "/a/b/flink/x", "/dang", "/dang/x", "/loop1", "/loop1/x",
	"/a/dot", "/a/dot/b", "/a/dot/dot/dot/rel", "/z", "/z/b/c", "a/../../x",
	"/a/b/c/../../b/./file", "/tmp/", "/dev/console",
	// Almost-clean paths: relative, doubled or trailing slashes, and "."
	// and ".." elements next to look-alike names.
	"a/", "./a", "../a", "/a/.", "/a/..", "/./", "/../a", "a//b", "/...",
	"/..a", "/.a", "/a.", "/a..", "/a/b/", "///", "/tmp//", "tmp",
}

// sameWalk fails unless the walk and the reference agree on p: the same
// inode or the same error, for a trailing link followed or not, and the
// same parent and name.
func sameWalk(t *testing.T, v *VFS, p string) {
	t.Helper()
	for _, follow := range []bool{true, false} {
		got, gerr := v.resolve(p, follow, 0)
		want, werr := v.refResolve(p, follow, 0)
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("resolve(%q, follow=%v) = %p, %v; reference %p, %v", p, follow, got, gerr, want, werr)
		}
	}
	gd, gn, gerr := v.lookupParent(p)
	wd, wn, werr := v.refLookupParent(p)
	if gd != wd || gn != wn || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("lookupParent(%q) = %p %q %v; reference %p %q %v", p, gd, gn, gerr, wd, wn, werr)
	}
}

// TestWalkMatchesReference holds the in-place walk to the reference on
// seeded paths with "//", ".", "..", trailing "/" and symlinks.
func TestWalkMatchesReference(t *testing.T) {
	v := walkTree(t)
	for _, p := range walkSeeds {
		sameWalk(t, v, p)
	}
}

// FuzzWalk extends TestWalkMatchesReference to fuzzed paths.
func FuzzWalk(f *testing.F) {
	for _, p := range walkSeeds {
		f.Add(p)
	}
	v := walkTree(f)
	f.Fuzz(func(t *testing.T, p string) {
		sameWalk(t, v, p)
	})
}

// TestFileSizeBounded grows a file past MaxFileSize by truncate, pwrite
// and a write after a far lseek: each fails with ErrFBig and leaves the
// file as it was, where an unbounded size would have the host allocate
// (or panic on) the whole file.
func TestFileSizeBounded(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("fbig")
	fd, err := k.Open(p, "/tmp/big", OCreat|ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(p, fd, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	for _, huge := range []int64{MaxFileSize + 1, 1 << 62} {
		if err := k.Ftruncate(p, fd, huge); !errors.Is(err, ErrFBig) {
			t.Fatalf("ftruncate to %d: %v, want ErrFBig", huge, err)
		}
		if err := k.Truncate(p, "/tmp/big", huge); !errors.Is(err, ErrFBig) {
			t.Fatalf("truncate to %d: %v, want ErrFBig", huge, err)
		}
		if _, err := k.Pwrite(p, fd, []byte("x"), huge); !errors.Is(err, ErrFBig) {
			t.Fatalf("pwrite at %d: %v, want ErrFBig", huge, err)
		}
		if _, err := k.Lseek(p, fd, huge, SeekSet); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(p, fd, []byte("x")); !errors.Is(err, ErrFBig) {
			t.Fatalf("write at %d: %v, want ErrFBig", huge, err)
		}
	}
	if fi, err := k.Stat(p, "/tmp/big"); err != nil || fi.Size != 4 {
		t.Fatalf("file after refused growth: %+v %v, want its 4 bytes", fi, err)
	}
}

// TestFileGrowsGeometrically appends 40,000 128-byte records to one file:
// the file's backing slice doubles when it grows, so the 5 MB file takes
// about log2 of its size in allocations, not one per 1.25× step, and reads
// back byte for byte. A truncate that shrinks and regrows the file reads
// zeros past the cut, not the bytes that were there.
func TestFileGrowsGeometrically(t *testing.T) {
	const records, size = 40_000, 128
	ino := &Inode{Name: "grow"}
	want := make([]byte, 0, records*size)
	rec := make([]byte, size)
	allocs := testing.AllocsPerRun(1, func() {
		ino.Data, want = nil, want[:0]
		for i := range records {
			for j := range rec {
				rec[j] = byte(i + j)
			}
			if _, err := ino.WriteAt(rec, int64(i*size)); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec...)
		}
	})
	if allocs > 25 {
		t.Fatalf("%d appends allocated %v times, want at most 25", records, allocs)
	}
	got := make([]byte, records*size)
	if n := ino.ReadAt(got, 0); n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes, want the %d written", n, len(want))
	}
	if err := ino.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if err := ino.Truncate(size); err != nil {
		t.Fatal(err)
	}
	if _, err := ino.WriteAt([]byte("z"), 2*size); err != nil {
		t.Fatal(err)
	}
	regrown := ino.Data[10 : 2*size]
	if !bytes.Equal(regrown, make([]byte, len(regrown))) || ino.Data[2*size] != 'z' {
		t.Fatalf("regrown file holds stale bytes: % x", regrown[:16])
	}
}

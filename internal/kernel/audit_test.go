package kernel

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"veil/internal/hv"
	"veil/internal/snp"
)

// Edge arguments for the record-text golden: every integer field sees
// zero, small, negative and extreme values, and every quoted field sees
// quotes, backslashes, control bytes, non-ASCII text and invalid UTF-8.
var (
	goldenInts = []int{0, 7, -1, -4096, math.MaxInt64, math.MinInt64}
	goldenU64s = []uint64{0, 0x1000, 0x7fff_ffff_f000, 1 << 63, math.MaxUint64}
	goldenMode = []uint32{0, 0o644, 0o7777, math.MaxUint32}
	goldenPath = []string{
		"", "/", "/tmp/plain", `/tmp/q"uote`, `/tmp/back\slash`,
		"/tmp/ctl\x00\x01\n\r\t\x1b\x7f", "/tmp/ünïcødé-日本", "/tmp/bad\xff\xfe\xc0",
		"/tmp/sep\u2028\ufeff", "/tmp/" + strings.Repeat("long-", 60),
	}
)

// auditGoldenScript drives every audited syscall through a kernel whose
// ruleset covers all syscall numbers. Calls whose edge arguments would make
// the body misbehave use a descriptor or path the body rejects: the record
// is emitted before the body runs, so it still carries the edge value.
func auditGoldenScript(k *Kernel) {
	all := make([]SysNo, 512)
	for i := range all {
		all[i] = SysNo(i)
	}
	k.Audit().SetRules(all)
	p := k.Spawn("golden")
	const bad = -1          // never an open descriptor
	const nodir = "/nx/dir" // parent missing: every lookup/create fails

	for _, path := range goldenPath {
		_, _ = k.Open(p, path, ORdonly, 0)
		_, _ = k.Openat(p, -100, path, ORdonly, 0)
		if fd, err := k.Creat(p, path, 0o600); err == nil {
			_ = k.Close(p, fd)
		}
		_, _ = k.Stat(p, path)
		_ = k.Truncate(p, path, 0)
		_ = k.Chmod(p, path, 0o640)
		_ = k.Link(p, path, path+".l")
		_ = k.Symlink(p, path, path+".s")
		_ = k.Rename(p, path+".l", path+".r")
		_ = k.Unlink(p, path+".r")
		_ = k.Unlinkat(p, -100, path+".s")
		_ = k.Unlink(p, path)
		_ = k.Mkdir(p, path, 0o755)
		_ = k.Rmdir(p, path)
		_ = k.Mknod(p, path, 0o600)
		_ = k.Unlink(p, path)
		_ = k.Execve(p, path, []string{path, path})
	}
	for _, v := range goldenInts {
		_, _ = k.Open(p, nodir, v, 0)
		_, _ = k.Openat(p, v, nodir, ORdonly, 0)
		_ = k.Close(p, v)
		_, _ = k.Read(p, v, nil)
		_, _ = k.Write(p, v, nil)
		_, _ = k.Pread(p, v, nil, int64(v))
		_, _ = k.Pwrite(p, v, nil, int64(v))
		_, _ = k.Lseek(p, v, int64(v), v)
		_, _ = k.Fstat(p, v)
		_ = k.Truncate(p, nodir, int64(v))
		_ = k.Ftruncate(p, v, int64(v))
		_ = k.Unlinkat(p, v, nodir)
		_, _ = k.Getdents(p, v)
		_, _ = k.Dup(p, v)
		_, _ = k.Dup2(p, bad, v)
		_, _ = k.Dup2(p, v, bad)
		_, _ = k.Dup3(p, bad, v, v)
		_, _ = k.Dup3(p, v, bad, 0)
		_, _ = k.Sendfile(p, v, bad, v)
		_, _ = k.Sendfile(p, bad, v, 0)
		_, _ = k.Splice(p, v, bad, 0)
		_, _ = k.Splice(p, bad, v, 0)
		_, _ = k.Socket(p, v, v)
		_ = k.Bind(p, v, v)
		_ = k.Listen(p, v, v)
		_ = k.Connect(p, v, v)
		_, _ = k.Accept(p, v)
		_, _ = k.Sendto(p, v, nil)
		_, _ = k.Recvfrom(p, v, nil)
		_, _ = k.Ioctl(p, v, 0, nil)
		_ = k.Setuid(p, v)
		_ = k.Getuid(p)
		_ = k.Getpid(p)
		if c, err := k.Fork(p); err == nil {
			_ = k.Exit(c, v)
		}
	}
	_ = k.Setuid(p, 0)
	for _, m := range goldenMode {
		_ = k.Chmod(p, nodir, m)
		_ = k.Fchmod(p, bad, m)
	}
	for _, v := range goldenU64s {
		_ = k.Munmap(p, v)
		_ = k.Mprotect(p, v, v, v)
		_, _ = k.Ioctl(p, bad, v, nil)
		k.Nanosleep(p, v)
	}
	for _, n := range []int{0, 1, 17, 4096} {
		buf := make([]byte, n)
		_, _ = k.Read(p, bad, buf)
		_, _ = k.Write(p, bad, buf)
		_, _ = k.Sendto(p, bad, buf)
		_, _ = k.Recvfrom(p, bad, buf)
		_, _ = k.Pread(p, bad, buf, -1)
		_, _ = k.Pwrite(p, bad, buf, math.MaxInt64)
		_ = k.Execve(p, nodir, make([]string, n))
	}

	// A working session, so records interleave with bodies that charge.
	fd, _ := k.Open(p, "/tmp/real", OCreat|ORdwr|OTrunc, 0o644)
	_, _ = k.Write(p, fd, []byte("hello, audit"))
	_, _ = k.Lseek(p, fd, 0, SeekSet)
	_, _ = k.Read(p, fd, make([]byte, 5))
	_, _ = k.Pread(p, fd, make([]byte, 5), 7)
	_ = k.Fchmod(p, fd, 0o600)
	_ = k.Ftruncate(p, fd, 3)
	_, _ = k.Fstat(p, fd)
	d, _ := k.Dup(p, fd)
	_, _ = k.Dup2(p, fd, 40)
	_, _ = k.Dup3(p, fd, 41, 0)
	_ = k.Close(p, d)
	rfd, wfd, _ := k.Pipe2(p, 0)
	_, _ = k.Write(p, wfd, []byte("pipe"))
	_, _ = k.Splice(p, rfd, fd, 4)
	_, _ = k.Sendfile(p, wfd, fd, 16)
	a, b, _ := k.Socketpair(p, AFUnix, SockStream)
	_, _ = k.Sendto(p, a, []byte("ping"))
	_, _ = k.Recvfrom(p, b, make([]byte, 8))
	s, _ := k.Socket(p, AFInet, SockStream)
	_ = k.Bind(p, s, 8080)
	_ = k.Listen(p, s, 128)
	c, _ := k.Socket(p, AFInet, SockStream)
	_ = k.Connect(p, c, 8080)
	_, _ = k.Accept(p, s)
	k.SchedYield(p)
	_ = k.Gettime(p)
	k.Nanosleep(p, 1000)
	if addr, err := k.Mmap(p, 3*4096, 3); err == nil {
		_ = k.Mprotect(p, addr, 4096, 1)
		_ = k.Munmap(p, addr)
	}
	// Lengths that overflow the page round-up or exhaust guest memory.
	_, _ = k.Mmap(p, math.MaxUint64, 1<<63)
	_, _ = k.Mmap(p, 0, 0)
	_, _ = k.Mmap(p, 1<<63, math.MaxUint64)
	_ = k.Exit(p, 0)
}

// TestAuditRecordGolden pins the exact text of every kaudit record: the
// header and each syscall's detail fields, byte for byte, one record per
// line.
func TestAuditRecordGolden(t *testing.T) {
	k := newNativeKernel(t, 1)
	auditGoldenScript(k)
	var got bytes.Buffer
	for _, r := range k.Audit().Records() {
		got.Write(r)
		got.WriteByte('\n')
	}
	want, err := os.ReadFile("testdata/kaudit_records.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("record %d differs:\n got %q\nwant %q", i, g[i], w[i])
		}
	}
	t.Fatalf("record count %d, want %d", len(g)-1, len(w)-1)
}

// TestAuditNativeRecordsAreCopies guards the native buffer against the
// reused render buffer: every stored record must keep its own text after
// many later records have been rendered.
func TestAuditNativeRecordsAreCopies(t *testing.T) {
	k := newNativeKernel(t, 1)
	k.Audit().SetRules([]SysNo{SysStat, SysClose})
	p := k.Spawn("copies")
	const n = 200
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			_, _ = k.Stat(p, "/tmp/"+strings.Repeat("x", i))
		} else {
			_ = k.Close(p, i)
		}
	}
	recs := k.Audit().Records()
	if len(recs) != n {
		t.Fatalf("records = %d, want %d", len(recs), n)
	}
	for i, r := range recs {
		want := fmt.Sprintf("syscall=close fd=%d", i)
		if i%2 == 0 {
			want = fmt.Sprintf("syscall=stat path=%q", "/tmp/"+strings.Repeat("x", i))
		}
		if !strings.HasSuffix(string(r), want) {
			t.Fatalf("record %d = %q, want suffix %q", i, r, want)
		}
	}
}

// TestTamperNativeNegativeDropIsNoOp: a negative drop count removes
// nothing, and neither panics nor grows the buffer past its records.
func TestTamperNativeNegativeDropIsNoOp(t *testing.T) {
	k := newNativeKernel(t, 1)
	k.Audit().SetRules([]SysNo{SysClose})
	p := k.Spawn("tamper")
	for fd := 0; fd < 3; fd++ {
		_ = k.Close(p, fd+10)
	}
	before := append([][]byte(nil), k.Audit().Records()...)
	for _, drop := range []int{-1, 0, -1 << 20} {
		k.Audit().TamperNative(drop)
		got := k.Audit().Records()
		if len(got) != len(before) {
			t.Fatalf("TamperNative(%d): %d records, want %d", drop, len(got), len(before))
		}
		for i := range got {
			if !bytes.Equal(got[i], before[i]) {
				t.Fatalf("TamperNative(%d) changed record %d: %q", drop, i, got[i])
			}
		}
	}
	k.Audit().TamperNative(1)
	if len(k.Audit().Records()) != len(before)-1 {
		t.Fatal("TamperNative(1) did not drop the last record")
	}
}

// FuzzAuditAppend checks the record appenders against the fmt verbs they
// replace, so record text cannot drift from kaudit's formatted form.
func FuzzAuditAppend(f *testing.F) {
	f.Add(int64(0), uint64(0), uint32(0), "")
	f.Add(int64(-1), uint64(1<<63), uint32(0o7777), `q"\\`)
	f.Add(int64(math.MinInt64), uint64(math.MaxUint64), uint32(math.MaxUint32), "\x00\n\xff日本\u2028")
	f.Add(int64(math.MaxInt64), uint64(0x1000), uint32(0o644), "/tmp/plain")
	f.Fuzz(func(t *testing.T, i int64, u uint64, m uint32, s string) {
		check := func(verb string, got recBuf, want string) {
			t.Helper()
			if string(got) != want {
				t.Fatalf("%s: got %q, want %q", verb, got, want)
			}
		}
		check("%#x int64", recBuf(nil).hex("k=", i), fmt.Sprintf("k=%#x", i))
		check("%#x uint64", recBuf(nil).uhex("k=", u), fmt.Sprintf("k=%#x", u))
		check("%#o", recBuf(nil).oct("k=", m), fmt.Sprintf("k=%#o", m))
		check("%q", recBuf(nil).quote("k=", s), fmt.Sprintf("k=%q", s))
		check("%d int64", recBuf(nil).dec64("k=", i), fmt.Sprintf("k=%d", i))
		check("%d int", recBuf(nil).dec("k=", int(i)), fmt.Sprintf("k=%d", int(i)))
		check("%d uint64", recBuf(nil).udec("k=", u), fmt.Sprintf("k=%d", u))
		check("%s", recBuf(nil).str("k=", s), fmt.Sprintf("k=%s", s))
	})
}

// newHookedKernel boots a VMPL0 kernel whose audit records go to hooks
// instead of the native buffer.
func newHookedKernel(t *testing.T, hooks *recordingHooks) *Kernel {
	t.Helper()
	m := snp.NewMachine(snp.Config{MemBytes: tkMachine, VCPUs: 1})
	hyp := hv.New(m, nil)
	hooks.onPValidate = func(phys uint64, v bool) error { return m.PValidate(snp.VMPL0, phys, v) }
	var k *Kernel
	boot := snp.ContextFunc(func(r snp.Reason) error {
		var err error
		k, err = New(m, hyp, Config{
			VMPL: snp.VMPL0, MemLo: tkMemLo, MemHi: tkMemHi,
			GHCBBase: tkGHCBBase, VCPUs: 1, Hooks: hooks,
		})
		if err != nil {
			return err
		}
		return k.Boot()
	})
	if err := hyp.Launch(nil, tkBootVMSA, snp.VMSA{VCPUID: 0, VMPL: snp.VMPL0, CPL: snp.CPL0}, 1, boot); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestAuditedSyscallZeroAlloc pins the audited-syscall path at zero
// allocations once the render buffer has grown: a syscall whose body
// allocates nothing stays allocation-free when every call also renders
// and emits a record.
func TestAuditedSyscallZeroAlloc(t *testing.T) {
	var emitted int
	k := newHookedKernel(t, &recordingHooks{onAudit: func(rec []byte) error {
		emitted += len(rec)
		return nil
	}})
	p := k.Spawn("alloc")
	fd, err := k.Open(p, "/tmp/alloc", OCreat|ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func()
	}{
		{"lseek", func() { _, err = k.Lseek(p, fd, 0, SeekSet) }},
		{"fstat", func() { _, err = k.Fstat(p, fd) }},
	}
	for _, c := range calls {
		c.call() // warm-up
		if a := testing.AllocsPerRun(100, c.call); a != 0 || err != nil {
			t.Fatalf("unaudited %s allocates %.1f times (err %v), want 0", c.name, a, err)
		}
	}
	k.Audit().SetRules([]SysNo{SysLseek, SysFstat})
	for _, c := range calls {
		c.call() // warm-up: grows the render buffer
		before := emitted
		if a := testing.AllocsPerRun(100, c.call); a != 0 || err != nil {
			t.Fatalf("audited %s allocates %.1f times (err %v), want 0", c.name, a, err)
		}
		if emitted == before {
			t.Fatalf("audited %s emitted no record", c.name)
		}
	}
}

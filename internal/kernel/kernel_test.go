package kernel

import (
	"crypto/ed25519"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strconv"
	"testing"

	"veil/internal/hv"
	"veil/internal/mm"
	"veil/internal/snp"
	"veil/internal/vmod"
)

// Test layout: 4 MiB machine. Page 0 = boot VMSA, pages 1..4 = GHCBs,
// kernel memory from page 16 up.
const (
	tkBootVMSA = 0
	tkGHCBBase = 1 * snp.PageSize
	tkMemLo    = 16 * snp.PageSize
	tkMemHi    = 1024 * snp.PageSize
	tkMachine  = 1024 * snp.PageSize
)

// newNativeKernel boots a native (VMPL0, no hooks) kernel and returns it.
func newNativeKernel(t *testing.T, vcpus int) *Kernel {
	t.Helper()
	m := snp.NewMachine(snp.Config{MemBytes: tkMachine, VCPUs: vcpus})
	hyp := hv.New(m, nil)
	var k *Kernel
	boot := snp.ContextFunc(func(r snp.Reason) error {
		var err error
		k, err = New(m, hyp, Config{
			VMPL:     snp.VMPL0,
			MemLo:    tkMemLo,
			MemHi:    tkMemHi,
			GHCBBase: tkGHCBBase,
			VCPUs:    vcpus,
		})
		if err != nil {
			return err
		}
		return k.Boot()
	})
	err := hyp.Launch(nil, tkBootVMSA, snp.VMSA{VCPUID: 0, VMPL: snp.VMPL0, CPL: snp.CPL0}, 1, boot)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	return k
}

func TestKernelBootAndAPs(t *testing.T) {
	k := newNativeKernel(t, 4)
	if k.apOnline != 3 {
		t.Fatalf("APs online = %d, want 3", k.apOnline)
	}
	if err := k.Boot(); err == nil {
		t.Fatal("double boot accepted")
	}
}

func TestAllocFrameAcceptsLazily(t *testing.T) {
	k := newNativeKernel(t, 1)
	before := k.m.Trace().Snapshot()
	f, err := k.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if d := k.m.Trace().Since(before); d.PValidates != 1 {
		t.Fatalf("PValidates = %d, want 1 (lazy accept)", d.PValidates)
	}
	e, _ := k.m.RMPEntryAt(f)
	if !e.Validated {
		t.Fatal("frame not validated after accept")
	}
	// Freeing and re-allocating must not re-validate.
	if err := k.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	before = k.m.Trace().Snapshot()
	if _, err := k.AllocFrame(); err != nil {
		t.Fatal(err)
	}
	if d := k.m.Trace().Since(before); d.PValidates != 0 {
		t.Fatal("re-accepted an already-validated frame")
	}
}

func TestSharePageWithHost(t *testing.T) {
	k := newNativeKernel(t, 1)
	f, err := k.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SharePageWithHost(f); err != nil {
		t.Fatal(err)
	}
	e, _ := k.m.RMPEntryAt(f)
	if e.Assigned {
		t.Fatal("shared page still assigned")
	}
	// Host can now use it as a bounce buffer.
	if err := k.m.HVWritePhys(f, []byte("dma")); err != nil {
		t.Fatal(err)
	}
}

func TestVFSBasics(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("test")

	fd, err := k.Open(p, "/tmp/a.txt", OCreat|ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := k.Write(p, fd, []byte("hello world")); err != nil || n != 11 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if _, err := k.Lseek(p, fd, 0, SeekSet); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if n, err := k.Read(p, fd, buf); err != nil || n != 5 || string(buf) != "hello" {
		t.Fatalf("read = %d %q %v", n, buf, err)
	}
	st, err := k.Fstat(p, fd)
	if err != nil || st.Size != 11 {
		t.Fatalf("fstat = %+v, %v", st, err)
	}
	if err := k.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Read(p, fd, buf); !errors.Is(err, ErrBadFD) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestVFSDirectoriesAndLinks(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("test")
	if err := k.Mkdir(p, "/tmp/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := k.Mkdir(p, "/tmp/d", 0o755); !errors.Is(err, ErrExist) {
		t.Fatalf("mkdir twice: %v", err)
	}
	fd, err := k.Open(p, "/tmp/d/f", OCreat|OWronly, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(p, fd, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := k.Link(p, "/tmp/d/f", "/tmp/d/f2"); err != nil {
		t.Fatal(err)
	}
	st, err := k.Stat(p, "/tmp/d/f2")
	if err != nil || st.Size != 1 || st.Nlink != 2 {
		t.Fatalf("hard link stat = %+v, %v", st, err)
	}
	if err := k.Symlink(p, "/tmp/d/f", "/tmp/sym"); err != nil {
		t.Fatal(err)
	}
	if st, err := k.Stat(p, "/tmp/sym"); err != nil || st.Size != 1 {
		t.Fatalf("symlink resolve = %+v, %v", st, err)
	}
	if err := k.Rename(p, "/tmp/d/f", "/tmp/d/g"); err != nil {
		t.Fatal(err)
	}
	names, err := k.vfs.ReadDir("/tmp/d")
	if err != nil || len(names) != 2 || names[0] != "f2" || names[1] != "g" {
		t.Fatalf("readdir = %v, %v", names, err)
	}
	if err := k.Rmdir(p, "/tmp/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := k.Unlink(p, "/tmp/d/g"); err != nil {
		t.Fatal(err)
	}
	if err := k.Unlink(p, "/tmp/d/f2"); err != nil {
		t.Fatal(err)
	}
	if err := k.Rmdir(p, "/tmp/d"); err != nil {
		t.Fatal(err)
	}
}

func TestSymlinkLoopDetected(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("test")
	if err := k.Symlink(p, "/tmp/b", "/tmp/a"); err != nil {
		t.Fatal(err)
	}
	if err := k.Symlink(p, "/tmp/a", "/tmp/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Stat(p, "/tmp/a"); !errors.Is(err, ErrLoop) {
		t.Fatalf("symlink loop: %v", err)
	}
}

func TestPipes(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("test")
	r, w, err := k.Pipe2(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(p, w, []byte("through the pipe")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := k.Read(p, r, buf)
	if err != nil || string(buf[:n]) != "through the pipe" {
		t.Fatalf("pipe read = %q, %v", buf[:n], err)
	}
	// Empty pipe with open writer: would block.
	if _, err := k.Read(p, r, buf); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("empty pipe read: %v", err)
	}
	// Closed writer: EOF.
	if err := k.Close(p, w); err != nil {
		t.Fatal(err)
	}
	if n, err := k.Read(p, r, buf); err != nil || n != 0 {
		t.Fatalf("EOF read = %d, %v", n, err)
	}
}

func TestSockets(t *testing.T) {
	k := newNativeKernel(t, 1)
	srv := k.Spawn("server")
	cli := k.Spawn("client")

	lfd, err := k.Socket(srv, AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Bind(srv, lfd, 8080); err != nil {
		t.Fatal(err)
	}
	if err := k.Listen(srv, lfd, 16); err != nil {
		t.Fatal(err)
	}
	// Accept before any connection: would block.
	if _, err := k.Accept(srv, lfd); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("early accept: %v", err)
	}
	cfd, err := k.Socket(cli, AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Connect(cli, cfd, 8080); err != nil {
		t.Fatal(err)
	}
	afd, err := k.Accept(srv, lfd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sendto(cli, cfd, []byte("GET /")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := k.Recvfrom(srv, afd, buf)
	if err != nil || string(buf[:n]) != "GET /" {
		t.Fatalf("server recv = %q, %v", buf[:n], err)
	}
	if _, err := k.Sendto(srv, afd, []byte("200 OK")); err != nil {
		t.Fatal(err)
	}
	n, err = k.Recvfrom(cli, cfd, buf)
	if err != nil || string(buf[:n]) != "200 OK" {
		t.Fatalf("client recv = %q, %v", buf[:n], err)
	}
	// Connect to a dead port.
	c2, _ := k.Socket(cli, AFInet, SockStream)
	if err := k.Connect(cli, c2, 9999); !errors.Is(err, ErrRefused) {
		t.Fatalf("connect to dead port: %v", err)
	}
}

func TestSocketpair(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("test")
	a, b, err := k.Socketpair(p, AFUnix, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sendto(p, a, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := k.Recvfrom(p, b, buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("socketpair recv = %q %v", buf[:n], err)
	}
}

func TestMmapGivesRealGuestMemory(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("test")
	addr, err := k.Mmap(p, 2*snp.PageSize, ProtRead|ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := p.Mem()
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Write(addr+100, []byte("user data")); err != nil {
		t.Fatalf("user write: %v", err)
	}
	got := make([]byte, 9)
	if err := mem.Read(addr+100, got); err != nil || string(got) != "user data" {
		t.Fatalf("user read = %q, %v", got, err)
	}
	// Write to a read-only region faults with a recoverable #PF.
	if err := k.Mprotect(p, addr, snp.PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := mem.Write(addr, []byte{1}); !snp.IsPF(err) {
		t.Fatalf("write to PROT_READ page: %v", err)
	}
	// The second page is still writable.
	if err := mem.Write(addr+snp.PageSize, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := k.Munmap(p, addr); err != nil {
		t.Fatal(err)
	}
	if err := mem.Write(addr+snp.PageSize, []byte{1}); !snp.IsPF(err) {
		t.Fatalf("write after munmap: %v", err)
	}
}

func TestMmapNXEnforced(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("test")
	addr, err := k.Mmap(p, snp.PageSize, ProtRead|ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	mem, _ := p.Mem()
	if err := mem.FetchCheck(addr); !snp.IsPF(err) {
		t.Fatalf("exec from non-exec mapping: %v", err)
	}
}

func TestForkAndExit(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("parent")
	fd, err := k.Open(p, "/tmp/shared", OCreat|ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	child, err := k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
	if child.PID == p.PID {
		t.Fatal("fork returned same PID")
	}
	// The child inherited the descriptor.
	if _, err := k.Write(child, fd, []byte("from child")); err != nil {
		t.Fatal(err)
	}
	if err := k.Exit(child, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.procs[child.PID]; ok {
		t.Fatal("exited process still registered")
	}
	// The parent's FD still works.
	if _, err := k.Write(p, fd, []byte("!")); err != nil {
		t.Fatal(err)
	}
}

// freeFrames counts the kernel pool's free frames by taking every one and
// handing them back in reverse, which restores the pool's order exactly.
func freeFrames(k *Kernel) int {
	var taken []uint64
	for {
		p, err := k.alloc.Alloc()
		if err != nil {
			break
		}
		taken = append(taken, p)
	}
	for i := len(taken) - 1; i >= 0; i-- {
		k.alloc.Free(taken[i])
	}
	return len(taken)
}

// TestFailedMmapReturnsItsFrames: an mmap larger than free memory fails,
// and the frames it took before running out go back to the pool rather
// than staying mapped and unrecorded, where even exit cannot free them.
func TestFailedMmapReturnsItsFrames(t *testing.T) {
	k := newNativeKernel(t, 1)
	free := freeFrames(k)
	p := k.Spawn("big")
	if _, err := k.Mmap(p, uint64(free+1)*snp.PageSize, ProtRead|ProtWrite); err == nil {
		t.Fatal("mmap larger than free memory succeeded")
	}
	if err := k.Exit(p, 0); err != nil {
		t.Fatal(err)
	}
	if got := freeFrames(k); got != free {
		t.Fatalf("leaked frames: %d → %d", free, got)
	}
}

func TestExitReleasesMemory(t *testing.T) {
	k := newNativeKernel(t, 1)
	free := freeFrames(k)
	p := k.Spawn("test")
	if _, err := k.Mmap(p, 8*snp.PageSize, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := k.Exit(p, 0); err != nil {
		t.Fatal(err)
	}
	if got := freeFrames(k); got != free {
		t.Fatalf("leaked frames: %d → %d", free, got)
	}
}

func TestAuditRulesetAndRecords(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("auditee")
	k.Audit().SetRules([]SysNo{SysOpen, SysUnlink})

	if _, err := k.Open(p, "/tmp/x", OCreat|OWronly, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Stat(p, "/tmp/x"); err != nil { // not in ruleset
		t.Fatal(err)
	}
	if err := k.Unlink(p, "/tmp/x"); err != nil {
		t.Fatal(err)
	}
	recs := k.Audit().Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if want := "syscall=open"; !containsStr(recs[0], want) {
		t.Fatalf("record 0 = %s", recs[0])
	}
	if want := "syscall=unlink"; !containsStr(recs[1], want) {
		t.Fatalf("record 1 = %s", recs[1])
	}
	if k.m.Trace().AuditRecords != 2 {
		t.Fatal("trace did not count audit records")
	}
	// Native kaudit is tamperable — the weakness VeilS-Log closes.
	k.Audit().TamperNative(2)
	if len(k.Audit().Records()) != 0 {
		t.Fatal("tamper failed (test harness)")
	}
}

func containsStr(b []byte, s string) bool {
	return len(b) >= len(s) && (string(b) == s || len(b) > len(s) && indexStr(string(b), s) >= 0)
}

func indexStr(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}

func TestAuditExecuteAheadOrdering(t *testing.T) {
	// Under Veil, the record must reach the sink before the syscall body
	// runs. We verify with a hooks implementation that records ordering.
	m := snp.NewMachine(snp.Config{MemBytes: tkMachine, VCPUs: 1})
	hyp := hv.New(m, nil)
	var k *Kernel
	var order []string
	hooks := &recordingHooks{
		onAudit: func(rec []byte) error {
			order = append(order, "audit")
			return nil
		},
		onPValidate: func(phys uint64, v bool) error {
			return m.PValidate(snp.VMPL0, phys, v)
		},
	}
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
	if err := hyp.Launch(nil, tkBootVMSA, snp.VMSA{VCPUID: 0, VMPL: snp.VMPL0}, 1, boot); err != nil {
		t.Fatal(err)
	}
	k.Audit().SetRules([]SysNo{SysOpen})
	p := k.Spawn("test")
	if _, err := k.Open(p, "/tmp/y", OCreat|OWronly, 0o644); err != nil {
		t.Fatal(err)
	}
	order = append(order, "event-done")
	if len(order) != 2 || order[0] != "audit" {
		t.Fatalf("execute-ahead order = %v", order)
	}
}

// recordingHooks is a minimal Hooks implementation for kernel-level tests.
type recordingHooks struct {
	onAudit     func([]byte) error
	onPValidate func(uint64, bool) error
}

func (h *recordingHooks) PValidate(phys uint64, v bool) error {
	if h.onPValidate != nil {
		return h.onPValidate(phys, v)
	}
	return nil
}
func (h *recordingHooks) BootAP(id int) error { return nil }
func (h *recordingHooks) LoadModule(image []byte, frames []uint64) (int, error) {
	return 1, nil
}
func (h *recordingHooks) FreeModule(handle int) error { return nil }
func (h *recordingHooks) AuditEmit(rec []byte) error {
	if h.onAudit != nil {
		return h.onAudit(rec)
	}
	return nil
}

func testModuleImage(t *testing.T, name string) ([]byte, ed25519.PublicKey) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	text := make([]byte, 3000)
	for i := range text {
		text[i] = byte(i)
	}
	m := &vmod.Module{
		Name: name, Text: text, Data: make([]byte, 1000), BSS: 16 * 1024,
		Relocs: []vmod.Reloc{{Offset: 0, Symbol: "printk"}},
	}
	return m.Sign(priv), priv.Public().(ed25519.PublicKey)
}

func TestNativeModuleLoadExecUnload(t *testing.T) {
	k := newNativeKernel(t, 1)
	image, pub := testModuleImage(t, "hello")
	k.Modules().SetSigningKey(pub)
	ran := false
	k.Modules().RegisterBehavior("hello", func(*Kernel) error { ran = true; return nil })

	lm, err := k.Modules().Load(image)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Size != 24*1024 {
		t.Fatalf("installed size = %d, want 24 KiB (CS1 module)", lm.Size)
	}
	if err := k.Modules().Exec(lm.ID); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("module behavior did not run")
	}
	if err := k.Modules().Unload(lm.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.mods.loaded[lm.ID]; ok {
		t.Fatal("module still loaded")
	}
}

func TestNativeModuleBadSignatureRejected(t *testing.T) {
	k := newNativeKernel(t, 1)
	image, pub := testModuleImage(t, "evil")
	k.Modules().SetSigningKey(pub)
	image[len(image)-1] ^= 1 // corrupt signature
	if _, err := k.Modules().Load(image); !errors.Is(err, vmod.ErrSignature) {
		t.Fatalf("load = %v, want ErrSignature", err)
	}
	// No frames leaked.
	free := freeFrames(k)
	if _, err := k.Modules().Load(image); err == nil {
		t.Fatal("second load accepted")
	}
	if freeFrames(k) != free {
		t.Fatal("frames leaked on failed load")
	}
}

func TestSendfileAndSplice(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("test")
	src, err := k.Open(p, "/tmp/src", OCreat|ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(p, src, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Lseek(p, src, 0, SeekSet); err != nil {
		t.Fatal(err)
	}
	dst, err := k.Open(p, "/tmp/dst", OCreat|ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := k.Sendfile(p, dst, src, 7); err != nil || n != 7 {
		t.Fatalf("sendfile = %d, %v", n, err)
	}
	ino, _ := k.vfs.Lookup("/tmp/dst")
	if string(ino.Data) != "payload" {
		t.Fatalf("dst contents %q", ino.Data)
	}
	// splice the rest through a pipe.
	r, w, err := k.Pipe2(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := k.Splice(p, src, w, 16); err != nil || n != 6 {
		t.Fatalf("splice in = %d, %v", n, err)
	}
	if n, err := k.Splice(p, r, dst, 16); err != nil || n != 6 {
		t.Fatalf("splice out = %d, %v", n, err)
	}
	if string(ino.Data) != "payload-bytes" {
		t.Fatalf("dst after splice %q", ino.Data)
	}
}

func TestDeviceIoctl(t *testing.T) {
	k := newNativeKernel(t, 1)
	var gotReq uint64
	if err := k.RegisterDevice("/dev/veil-test", func(p *Process, req uint64, arg []byte) (uint64, error) {
		gotReq = req
		return 42, nil
	}); err != nil {
		t.Fatal(err)
	}
	p := k.Spawn("test")
	fd, err := k.Open(p, "/dev/veil-test", ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := k.Ioctl(p, fd, 0xbeef, nil)
	if err != nil || ret != 42 || gotReq != 0xbeef {
		t.Fatalf("ioctl = %d, %v (req %#x)", ret, err, gotReq)
	}
	// ioctl on a plain file fails.
	ffd, _ := k.Open(p, "/tmp/f", OCreat|ORdwr, 0o644)
	if _, err := k.Ioctl(p, ffd, 1, nil); !errors.Is(err, ErrInval) {
		t.Fatalf("ioctl on file: %v", err)
	}
}

func TestDupVariants(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("test")
	fd, err := k.Open(p, "/tmp/d", OCreat|ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := k.Dup(p, fd)
	if err != nil || d1 == fd {
		t.Fatalf("dup = %d, %v", d1, err)
	}
	if _, err := k.Dup2(p, fd, 77); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(p, 77, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Dup3(p, fd, fd, 0); !errors.Is(err, ErrInval) {
		t.Fatalf("dup3 same fd: %v", err)
	}
}

func TestSyscallCostsCharged(t *testing.T) {
	k := newNativeKernel(t, 1)
	p := k.Spawn("test")
	before := k.m.Clock().Snapshot()
	_ = k.Getpid(p)
	if got := k.m.Clock().SinceOf(before, snp.CostSyscall); got != snp.CyclesSyscall {
		t.Fatalf("syscall cost = %d", got)
	}
	fd, _ := k.Open(p, "/tmp/c", OCreat|ORdwr, 0o644)
	before = k.m.Clock().Snapshot()
	if _, err := k.Write(p, fd, make([]byte, snp.PageSize)); err != nil {
		t.Fatal(err)
	}
	if got := k.m.Clock().SinceOf(before, snp.CostPageCopy); got < snp.CyclesPageCopy4K {
		t.Fatalf("copy cost = %d, want ≥ %d", got, snp.CyclesPageCopy4K)
	}
}

func TestPhysAllocatorExhaustionAndReuse(t *testing.T) {
	a, err := mm.NewPhysAllocator(0, 4*snp.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		p, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("frame %#x allocated twice", p)
		}
		seen[p] = true
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	if err := a.Free(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(0); err == nil {
		t.Fatal("double free accepted")
	}
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
}

// TestAddressSpaceMapUnmapProtect checks each page-table edit through the
// walker: a mapped page reaches its frame, a protected one refuses writes,
// an unmapped one faults.
func TestAddressSpaceMapUnmapProtect(t *testing.T) {
	k := newNativeKernel(t, 1)
	as, err := mm.NewAddressSpace(k.m, snp.VMPL0, k)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := k.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	const virt = 0x4000_0000
	if err := as.Map(virt, frame, snp.PTEWrite|snp.PTEUser); err != nil {
		t.Fatal(err)
	}
	mem := as.Context(snp.CPL3)
	if err := mem.Write(virt, []byte("mapped")); err != nil {
		t.Fatalf("write through the mapping: %v", err)
	}
	got := make([]byte, 6)
	if err := k.ReadPhys(frame, got); err != nil || string(got) != "mapped" {
		t.Fatalf("frame holds %q, %v", got, err)
	}
	if err := as.Protect(virt, snp.PTEUser); err != nil {
		t.Fatal(err)
	}
	if err := mem.Write(virt, []byte("x")); err == nil {
		t.Fatal("protect did not clear write access")
	}
	if err := mem.Read(virt, got); err != nil {
		t.Fatalf("read after protect: %v", err)
	}
	unmapped, err := as.Unmap(virt)
	if err != nil || unmapped != frame {
		t.Fatalf("unmap = %#x, %v", unmapped, err)
	}
	if err := mem.Read(virt, got); err == nil {
		t.Fatal("read after unmap succeeded")
	}
}

func TestSysNoNames(t *testing.T) {
	if SysOpen.Name() != "open" || SysMknodat.Name() != "mknodat" {
		t.Fatal("syscall names")
	}
	if SysNo(9999).Name() != "sys_9999" {
		t.Fatal("unknown syscall name")
	}
}

// TestSysNoTablesCoverEveryConstant holds the per-syscall arrays to the
// SysNo constants declared in syscall.go: each has a slot in the tables
// and a name. Numbers outside the tables keep the defaults (sys_N, the
// default base cost, never audited) and index nothing.
func TestSysNoTablesCoverEveryConstant(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "syscall.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "SysNo" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s: value is not a literal", name.Name)
				}
				v, err := strconv.Atoi(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				n := SysNo(v)
				if n < 0 || n >= numSysNo {
					t.Errorf("%s = %d has no slot in the [%d] tables", name.Name, v, numSysNo)
					continue
				}
				if sysNames[n] == "" {
					t.Errorf("%s = %d has no name", name.Name, v)
				}
				consts++
			}
		}
	}
	if consts < 60 {
		t.Fatalf("found only %d SysNo constants in syscall.go", consts)
	}

	k := newNativeKernel(t, 1)
	k.Audit().SetRules([]SysNo{-1, SysOpen, numSysNo, 9999})
	for _, n := range []SysNo{-1, numSysNo, 9999} {
		if got, want := n.Name(), "sys_"+strconv.Itoa(int(n)); got != want {
			t.Errorf("SysNo(%d).Name() = %q, want %q", n, got, want)
		}
		if k.Audit().Matches(n) {
			t.Errorf("SysNo(%d) audited", n)
		}
		before := k.m.Clock().Cycles()
		k.chargeBase(n)
		if got := k.m.Clock().Cycles() - before; got != defaultBaseCost {
			t.Errorf("SysNo(%d) base cost %d, want %d", n, got, defaultBaseCost)
		}
	}
	if !k.Audit().Matches(SysOpen) {
		t.Error("SysOpen not audited")
	}
	before := k.m.Clock().Cycles()
	k.chargeBase(SysPipe) // implemented, but not in sysBaseCost
	if got := k.m.Clock().Cycles() - before; got != defaultBaseCost {
		t.Errorf("pipe base cost %d, want the default %d", got, defaultBaseCost)
	}
}

func TestDefaultRulesetMatchesPaperFootnote(t *testing.T) {
	rs := DefaultRuleset()
	want := map[SysNo]bool{SysRead: true, SysExecve: true, SysSplice: true, SysMknod: true}
	got := map[SysNo]bool{}
	for _, n := range rs {
		if got[n] {
			t.Fatalf("duplicate rule %v", n)
		}
		got[n] = true
	}
	for n := range want {
		if !got[n] {
			t.Fatalf("ruleset missing %s", n.Name())
		}
	}
	if len(rs) != 44 {
		t.Fatalf("ruleset size = %d, want 44 (42 paper calls + read/write aliases)", len(rs))
	}
}

func TestSharedFrameReuseAfterFree(t *testing.T) {
	// Regression: a frame converted to a shared bounce buffer, freed, and
	// re-allocated must go through the unshare flow (assign + validate)
	// instead of halting on a PVALIDATE of an unassigned page.
	k := newNativeKernel(t, 1)
	f, err := k.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SharePageWithHost(f); err != nil {
		t.Fatal(err)
	}
	if err := k.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	// Drain until we get the same frame back (deterministic allocator:
	// freed frames come back first).
	g, err := k.AllocFrame()
	if err != nil {
		t.Fatalf("re-alloc: %v", err)
	}
	if g != f {
		t.Fatalf("allocator returned %#x, want recycled %#x", g, f)
	}
	if k.m.Halted() != nil {
		t.Fatalf("machine halted: %v", k.m.Halted())
	}
	e, _ := k.m.RMPEntryAt(g)
	if !e.Assigned || !e.Validated {
		t.Fatalf("recycled frame state: %+v", e)
	}
	if err := k.WritePhys(g, []byte("usable")); err != nil {
		t.Fatal(err)
	}
}

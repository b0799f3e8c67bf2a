package sdk

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"veil/internal/kernel"
	"veil/internal/snp"
)

// ocallFrames runs a scripted enclave program that crosses the descriptor
// with every Libc method the SDK redirects (arities 1–6), one Batch.Flush
// and one demand page-in. An ocall server wrapper snapshots the request
// side of the descriptor before ServeOcall and the reply after it, one
// exit per line, in hex.
func ocallFrames(t *testing.T) string {
	t.Helper()
	c := bootVeil(t)
	var heapPage uint64
	phase := 0
	var fails []string
	var record func(vcpu int) error
	check := func(what string, err error) {
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", what, err))
		}
	}
	prog := ProgramFunc(func(lc Libc, args []string) int {
		er := lc.(*EnclaveRuntime)
		c.SwapOcallServer(0, record)
		if phase == 1 {
			buf := make([]byte, 16)
			check("ReadMem after eviction", er.ReadMem(heapPage, buf))
			return 0
		}
		heapPage = er.View().Base + er.View().Length/2
		check("WriteMem", er.WriteMem(heapPage, []byte("frame golden heap page")))

		fd, err := lc.Open("/tmp/frames.db", kernel.OCreat|kernel.ORdwr, 0o640)
		check("Open", err)
		_, err = lc.Write(fd, []byte("descriptor bytes"))
		check("Write", err)
		_, err = lc.Pwrite(fd, []byte("at offset"), 32)
		check("Pwrite", err)
		_, err = lc.Lseek(fd, 0, kernel.SeekSet)
		check("Lseek", err)
		_, err = lc.Read(fd, make([]byte, 24))
		check("Read", err)
		_, err = lc.Pread(fd, make([]byte, 8), 32)
		check("Pread", err)
		_, err = lc.Fstat(fd)
		check("Fstat", err)
		check("Ftruncate", lc.Ftruncate(fd, 12))
		check("Close", lc.Close(fd))
		_, err = lc.Stat("/tmp/frames.db")
		check("Stat", err)
		check("Truncate", lc.Truncate("/tmp/frames.db", 4))
		check("Mkdir", lc.Mkdir("/tmp/frames.d", 0o750))
		check("Rename", lc.Rename("/tmp/frames.db", "/tmp/frames.d/moved.db"))
		check("Unlink", lc.Unlink("/tmp/frames.d/moved.db"))

		addr, err := lc.Mmap(snp.PageSize, kernel.ProtRead|kernel.ProtWrite)
		check("Mmap", err)
		// The enclave's view cannot re-protect a mapping made after launch,
		// so this one is refused; its errno crosses the frame all the same.
		_ = lc.Mprotect(addr, snp.PageSize, kernel.ProtRead)
		check("Munmap", lc.Munmap(addr))

		ls, err := lc.Socket(kernel.AFInet, kernel.SockStream)
		check("Socket", err)
		check("Bind", lc.Bind(ls, 47011))
		check("Listen", lc.Listen(ls, 2))
		cs, err := lc.Socket(kernel.AFInet, kernel.SockStream)
		check("Socket", err)
		check("Connect", lc.Connect(cs, 47011))
		as, err := lc.Accept(ls)
		check("Accept", err)
		_, err = lc.Send(cs, []byte("ping over the frame"))
		check("Send", err)
		_, err = lc.Recv(as, make([]byte, 32))
		check("Recv", err)

		lc.Getpid()
		lc.Yield()
		check("Print", lc.Print("frame golden\n"))

		bfd, err := lc.Open("/tmp/frames.log", kernel.OCreat|kernel.OWronly, 0o600)
		check("Open", err)
		bt := er.StartBatch()
		check("Batch.Write", bt.Write(bfd, []byte("batched\n")))
		// The second entry's length keeps the flushed blob, and so the
		// frame's blob-length word, at the size the golden pins.
		check("Batch.Write", bt.Write(bfd, []byte("batched!\n")))
		_, err = bt.Flush()
		check("Batch.Flush", err)
		return 0
	})
	a, _ := launch(t, c, prog)

	mem, err := a.P.Mem()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	exits := 0
	record = func(vcpu int) error {
		req := make([]byte, dArgs+maxOcallArgs*24)
		if err := mem.Read(a.sharedVirt, req); err != nil {
			return err
		}
		if err := a.ServeOcall(vcpu); err != nil {
			return err
		}
		rep := make([]byte, 16)
		if err := mem.Read(a.sharedVirt+dRet, rep); err != nil {
			return err
		}
		fmt.Fprintf(&out, "%03d %s %s\n", exits, hex.EncodeToString(req), hex.EncodeToString(rep))
		exits++
		return nil
	}
	if rc, err := a.Enter(); err != nil || rc != 0 {
		t.Fatalf("script: rc=%d err=%v", rc, err)
	}
	if err := a.EvictPage(heapPage); err != nil {
		t.Fatalf("evict: %v", err)
	}
	phase = 1
	if rc, err := a.Enter(); err != nil || rc != 0 {
		t.Fatalf("page-in: rc=%d err=%v", rc, err)
	}
	if len(fails) > 0 {
		t.Fatalf("script calls failed:\n%s", strings.Join(fails, "\n"))
	}
	return out.String()
}

// TestOcallFrameGolden pins the descriptor bytes each ocall leaves in the
// shared region, request and reply, against a golden recorded with the
// word-at-a-time codec the frame codec replaced.
func TestOcallFrameGolden(t *testing.T) {
	got := ocallFrames(t)
	want, err := os.ReadFile("testdata/ocall_frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("ocall frame %d differs from the golden:\n got:  %s\n want: %s", i, g, w)
		}
	}
}

// TestOcallTranslationsPerCall pins the guest translations one redirected
// call takes, enclave and application together: each of the four frames
// (request and reply, written on one side and read on the other) is one
// span, and each staged buffer crossing adds one access per side that
// touches it; a staged path is one access with its terminator. A codec
// that splits a frame or a path into two accesses again adds a
// translation and fails here.
func TestOcallTranslationsPerCall(t *testing.T) {
	c := bootVeil(t)
	want := []struct {
		name string
		n    uint64
	}{{"Lseek", 4}, {"Pwrite", 6}, {"Open", 6}, {"Read", 6}}
	got := map[string]uint64{}
	translations := func() uint64 {
		ms := c.M.MemStats()
		return ms.TLBHits + ms.TLBMisses
	}
	prog := ProgramFunc(func(lc Libc, _ []string) int {
		buf := bytes.Repeat([]byte("veil"), 32)
		fd := -1
		calls := []struct {
			name string
			call func() error
		}{
			{"Open", func() (err error) {
				fd, err = lc.Open("/tmp/translations", kernel.OCreat|kernel.ORdwr, 0o600)
				return err
			}},
			{"Pwrite", func() error { _, err := lc.Pwrite(fd, buf, 0); return err }},
			{"Lseek", func() error { _, err := lc.Lseek(fd, 0, kernel.SeekSet); return err }},
			{"Read", func() error { _, err := lc.Read(fd, buf); return err }},
		}
		for _, cl := range calls {
			before := translations()
			if err := cl.call(); err != nil {
				t.Errorf("%s: %v", cl.name, err)
				return 1
			}
			got[cl.name] = translations() - before
		}
		return 0
	})
	a, _ := launch(t, c, prog)
	if rc, err := a.Enter(); err != nil || rc != 0 {
		t.Fatalf("rc=%d err=%v", rc, err)
	}
	for _, w := range want {
		if got[w.name] != w.n {
			t.Errorf("%s takes %d guest translations, want %d", w.name, got[w.name], w.n)
		}
	}
}

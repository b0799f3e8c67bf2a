package sdk

import (
	"bytes"
	"testing"

	"veil/internal/kernel"
)

// TestRequestPathZeroAlloc is the request path's allocation gate: on a
// warmed machine, the data buffers of an enclave's file and socket calls,
// an enclave's HTTP-style request cycle apart from its staged path, a
// kernel path walk and a recycled connection's queues allocate nothing.
func TestRequestPathZeroAlloc(t *testing.T) {
	const size = 10 << 10
	payload := bytes.Repeat([]byte("veil"), size/4)

	t.Run("enclave file write pwrite read", func(t *testing.T) {
		allocs := map[string]float64{}
		runEnclave(t, func(lc Libc) int {
			fd, err := lc.Open("/tmp/request-path", kernel.OCreat|kernel.ORdwr, 0o600)
			if err != nil {
				return 1
			}
			buf := make([]byte, size)
			calls := []struct {
				name string
				call func() (int, error)
			}{
				{"write", func() (int, error) {
					if _, err := lc.Lseek(fd, 0, kernel.SeekSet); err != nil {
						return 0, err
					}
					return lc.Write(fd, payload)
				}},
				{"pwrite", func() (int, error) { return lc.Pwrite(fd, payload, 0) }},
				{"read", func() (int, error) {
					if _, err := lc.Lseek(fd, 0, kernel.SeekSet); err != nil {
						return 0, err
					}
					return lc.Read(fd, buf)
				}},
			}
			for _, c := range calls {
				if n, err := c.call(); err != nil || n != size {
					t.Errorf("%s: n=%d err=%v", c.name, n, err)
					return 2
				}
				allocs[c.name] = testing.AllocsPerRun(50, func() { _, _ = c.call() })
			}
			if !bytes.Equal(buf, payload) {
				t.Error("read returned other bytes than were written")
			}
			return 0
		})
		for name, a := range allocs {
			if a != 0 {
				t.Errorf("enclave %s of %d bytes allocates %.1f times per call, want 0", name, size, a)
			}
		}
	})

	t.Run("enclave send recv", func(t *testing.T) {
		var allocs float64
		runEnclave(t, func(lc Libc) int {
			ls, _ := lc.Socket(kernel.AFInet, kernel.SockStream)
			if lc.Bind(ls, 47100) != nil || lc.Listen(ls, 1) != nil {
				return 1
			}
			cs, _ := lc.Socket(kernel.AFInet, kernel.SockStream)
			if lc.Connect(cs, 47100) != nil {
				return 2
			}
			as, err := lc.Accept(ls)
			if err != nil {
				return 3
			}
			buf := make([]byte, size)
			exchange := func() bool {
				n, err := lc.Send(cs, payload)
				if err != nil || n != size {
					return false
				}
				n, err = lc.Recv(as, buf)
				return err == nil && n == size
			}
			if !exchange() || !bytes.Equal(buf, payload) {
				t.Error("warm-up exchange failed")
				return 4
			}
			allocs = testing.AllocsPerRun(50, func() { exchange() })
			return 0
		})
		if allocs != 0 {
			t.Errorf("enclave send+recv of %d bytes allocates %.1f times, want 0", size, allocs)
		}
	})

	t.Run("enclave accept open read send close", func(t *testing.T) {
		// The enclave serves one HTTP request per cycle to a native
		// client, as enc-lighttpd does. The kernel recycles each
		// request's sockets, connection and open file, so the one
		// allocation left is the OCALL server's copy of the staged path
		// into a Go string for Kernel.Open.
		const port = 47300
		c := bootVeil(t)
		k := c.K
		cli := k.Spawn("ab")
		srv := k.Spawn("seed")
		fd, err := k.Open(srv, "/tmp/index.html", kernel.OCreat|kernel.OWronly, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(srv, fd, payload); err != nil {
			t.Fatal(err)
		}
		req := []byte("GET /index.html HTTP/1.0\r\n\r\n")
		resp := make([]byte, 16<<10)
		var allocs float64
		a, _ := launch(t, c, ProgramFunc(func(lc Libc, _ []string) int {
			ls, _ := lc.Socket(kernel.AFInet, kernel.SockStream)
			if lc.Bind(ls, port) != nil || lc.Listen(ls, 16) != nil {
				return 1
			}
			reqBuf, body := make([]byte, 4096), make([]byte, size)
			cycle := func() bool {
				cfd, err := k.Socket(cli, kernel.AFInet, kernel.SockStream)
				if err != nil || k.Connect(cli, cfd, port) != nil {
					return false
				}
				if _, err := k.Sendto(cli, cfd, req); err != nil {
					return false
				}
				afd, err := lc.Accept(ls)
				if err != nil {
					return false
				}
				if n, err := lc.Recv(afd, reqBuf); err != nil || n != len(req) {
					return false
				}
				fd, err := lc.Open("/tmp/index.html", kernel.ORdonly, 0)
				if err != nil {
					return false
				}
				m, err := lc.Read(fd, body)
				if err != nil || m != size || lc.Close(fd) != nil {
					return false
				}
				if n, err := lc.Send(afd, body[:m]); err != nil || n != m || lc.Close(afd) != nil {
					return false
				}
				got := 0
				for {
					n, err := k.Recvfrom(cli, cfd, resp)
					if err != nil {
						return false
					}
					if n == 0 {
						break
					}
					got += n
				}
				return got == size && k.Close(cli, cfd) == nil
			}
			for i := 0; i < 2; i++ { // warm-up: fills the kernel's pools
				if !cycle() {
					t.Error("warm-up cycle failed")
					return 2
				}
			}
			ok := true
			allocs = testing.AllocsPerRun(50, func() { ok = cycle() && ok })
			if !ok || !bytes.Equal(body, payload) {
				t.Error("a measured cycle failed")
				return 3
			}
			return 0
		}))
		if rc, err := a.Enter(); err != nil || rc != 0 {
			t.Fatalf("enclave rc=%d err=%v", rc, err)
		}
		if allocs > 1 {
			t.Errorf("an enclave accept/open/read/send/close cycle allocates %.1f times, want at most 1 (the staged path)", allocs)
		}
	})

	t.Run("kernel stat of a clean path", func(t *testing.T) {
		c := bootVeil(t)
		p := c.K.Spawn("stat")
		if err := c.K.Mkdir(p, "/data/www", 0o755); err != nil {
			t.Fatal(err)
		}
		fd, err := c.K.Open(p, "/data/www/index.html", kernel.OCreat|kernel.OWronly, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.K.Write(p, fd, payload); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(100, func() {
			if fi, err := c.K.Stat(p, "/data/www/index.html"); err != nil || fi.Size != size {
				t.Errorf("stat: %+v %v", fi, err)
			}
		}); a != 0 {
			t.Errorf("Stat of a clean path allocates %.1f times, want 0", a)
		}
	})

	t.Run("queues of a second connection", func(t *testing.T) {
		// Each connection is closed on both ends after its exchange, so
		// the next one is served from the queues it left. AllocsPerRun
		// makes runs+1 calls; the connections are opened before it, each
		// on the queues of an earlier, closed one, so each first 10 KiB
		// exchange is measured on recycled capacity.
		const runs = 8
		c := bootVeil(t)
		k := c.K
		p := k.Spawn("queues")
		ls, _ := k.Socket(p, kernel.AFInet, kernel.SockStream)
		if k.Bind(p, ls, 47200) != nil || k.Listen(p, ls, runs+1) != nil {
			t.Fatal("listen")
		}
		type pair struct{ cs, as int }
		open := func() []pair {
			var ps []pair
			for i := 0; i < runs+1; i++ {
				cs, _ := k.Socket(p, kernel.AFInet, kernel.SockStream)
				if err := k.Connect(p, cs, 47200); err != nil {
					t.Fatal(err)
				}
				as, err := k.Accept(p, ls)
				if err != nil {
					t.Fatal(err)
				}
				ps = append(ps, pair{cs, as})
			}
			return ps
		}
		buf := make([]byte, size)
		exchange := func(c pair) {
			if n, err := k.Sendto(p, c.cs, payload); err != nil || n != size {
				t.Fatalf("send: %d %v", n, err)
			}
			if n, err := k.Recvfrom(p, c.as, buf); err != nil || n != size {
				t.Fatalf("recv: %d %v", n, err)
			}
			if n, err := k.Sendto(p, c.as, payload); err != nil || n != size {
				t.Fatalf("reply: %d %v", n, err)
			}
			if n, err := k.Recvfrom(p, c.cs, buf); err != nil || n != size {
				t.Fatalf("recv reply: %d %v", n, err)
			}
		}
		closeAll := func(ps []pair) {
			for _, c := range ps {
				if k.Close(p, c.cs) != nil || k.Close(p, c.as) != nil {
					t.Fatal("close")
				}
			}
		}
		first := open()
		for _, c := range first {
			exchange(c)
		}
		closeAll(first)
		second := open()
		i := 0
		if a := testing.AllocsPerRun(runs, func() { exchange(second[i]); i++ }); a != 0 {
			t.Errorf("a connection on recycled queues allocates %.1f times for its first 10 KiB exchange, want 0", a)
		}
		closeAll(second)
	})
}

// runEnclave runs body as an enclave program and fails the test unless it
// returns 0.
func runEnclave(t *testing.T, body func(lc Libc) int) {
	t.Helper()
	c := bootVeil(t)
	a, _ := launch(t, c, ProgramFunc(func(lc Libc, _ []string) int { return body(lc) }))
	if rc, err := a.Enter(); err != nil || rc != 0 {
		t.Fatalf("enclave rc=%d err=%v", rc, err)
	}
}

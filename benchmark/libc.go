package main

import (
	"time"

	"veil/internal/kernel"
	"veil/internal/sdk"
	"veil/internal/snp"
)

// libcOps names the Libc methods the traced run reports a host p50 for
// (the calls the benchmark's programs make in volume).
var libcOps = []string{"read", "write", "pwrite", "send", "recv", "open", "accept"}

// meteredLibc is the decorator the benchmark wraps around a program's Libc:
// every call except Burn is one request across the protection boundary.
// It measures each request's virtual latency on the machine clock, counts
// the bytes the call moves across the boundary, and in traced rounds times
// each call on the host clock by method. onSend, when set, sees every send
// buffer (the HTTP body check).
type meteredLibc struct {
	sdk.Libc
	clk    *snp.Clock
	r      *round
	onSend func(buf []byte)
	copied uint64
	// pid is the program's process id when it runs natively; lastBegin and
	// lastEnd bound the virtual time of its most recent call.
	pid                int
	lastBegin, lastEnd uint64
}

type call struct {
	cyc  uint64
	host time.Time
}

func (l *meteredLibc) begin() call {
	c := call{cyc: l.clk.Cycles()}
	if l.r.traced {
		c.host = time.Now()
	}
	return c
}

func (l *meteredLibc) end(c call, op string, bytes int, err error) {
	l.lastBegin, l.lastEnd = c.cyc, l.clk.Cycles()
	l.r.request(l.lastEnd - c.cyc)
	if err != nil {
		l.r.fail()
	}
	if bytes > 0 {
		l.copied += uint64(bytes)
	}
	if l.r.traced {
		d := uint64(time.Since(c.host))
		l.r.timing("req", d)
		l.r.timing(op, d)
	}
}

func (l *meteredLibc) Open(path string, flags int, mode uint32) (int, error) {
	c := l.begin()
	fd, err := l.Libc.Open(path, flags, mode)
	l.end(c, "libc.open", len(path), err)
	return fd, err
}

func (l *meteredLibc) Close(fd int) error {
	c := l.begin()
	err := l.Libc.Close(fd)
	l.end(c, "libc.close", 0, err)
	return err
}

func (l *meteredLibc) Read(fd int, buf []byte) (int, error) {
	c := l.begin()
	n, err := l.Libc.Read(fd, buf)
	l.end(c, "libc.read", n, err)
	return n, err
}

func (l *meteredLibc) Write(fd int, buf []byte) (int, error) {
	c := l.begin()
	n, err := l.Libc.Write(fd, buf)
	l.end(c, "libc.write", len(buf), err)
	return n, err
}

func (l *meteredLibc) Pread(fd int, buf []byte, off int64) (int, error) {
	c := l.begin()
	n, err := l.Libc.Pread(fd, buf, off)
	l.end(c, "libc.pread", n, err)
	return n, err
}

func (l *meteredLibc) Pwrite(fd int, buf []byte, off int64) (int, error) {
	c := l.begin()
	n, err := l.Libc.Pwrite(fd, buf, off)
	l.end(c, "libc.pwrite", len(buf), err)
	return n, err
}

func (l *meteredLibc) Lseek(fd int, off int64, whence int) (int64, error) {
	c := l.begin()
	n, err := l.Libc.Lseek(fd, off, whence)
	l.end(c, "libc.lseek", 0, err)
	return n, err
}

func (l *meteredLibc) Stat(path string) (kernel.FileInfo, error) {
	c := l.begin()
	fi, err := l.Libc.Stat(path)
	l.end(c, "libc.stat", len(path), err)
	return fi, err
}

func (l *meteredLibc) Fstat(fd int) (kernel.FileInfo, error) {
	c := l.begin()
	fi, err := l.Libc.Fstat(fd)
	l.end(c, "libc.fstat", 0, err)
	return fi, err
}

func (l *meteredLibc) Unlink(path string) error {
	c := l.begin()
	err := l.Libc.Unlink(path)
	l.end(c, "libc.unlink", len(path), err)
	return err
}

func (l *meteredLibc) Rename(oldp, newp string) error {
	c := l.begin()
	err := l.Libc.Rename(oldp, newp)
	l.end(c, "libc.rename", len(oldp)+len(newp), err)
	return err
}

func (l *meteredLibc) Mkdir(path string, mode uint32) error {
	c := l.begin()
	err := l.Libc.Mkdir(path, mode)
	l.end(c, "libc.mkdir", len(path), err)
	return err
}

func (l *meteredLibc) Truncate(path string, size int64) error {
	c := l.begin()
	err := l.Libc.Truncate(path, size)
	l.end(c, "libc.truncate", len(path), err)
	return err
}

func (l *meteredLibc) Ftruncate(fd int, size int64) error {
	c := l.begin()
	err := l.Libc.Ftruncate(fd, size)
	l.end(c, "libc.ftruncate", 0, err)
	return err
}

func (l *meteredLibc) Mmap(length uint64, prot uint64) (uint64, error) {
	c := l.begin()
	addr, err := l.Libc.Mmap(length, prot)
	l.end(c, "libc.mmap", 0, err)
	return addr, err
}

func (l *meteredLibc) Munmap(addr uint64) error {
	c := l.begin()
	err := l.Libc.Munmap(addr)
	l.end(c, "libc.munmap", 0, err)
	return err
}

func (l *meteredLibc) Mprotect(addr, length uint64, prot uint64) error {
	c := l.begin()
	err := l.Libc.Mprotect(addr, length, prot)
	l.end(c, "libc.mprotect", 0, err)
	return err
}

func (l *meteredLibc) Socket(domain, typ int) (int, error) {
	c := l.begin()
	fd, err := l.Libc.Socket(domain, typ)
	l.end(c, "libc.socket", 0, err)
	return fd, err
}

func (l *meteredLibc) Bind(fd, port int) error {
	c := l.begin()
	err := l.Libc.Bind(fd, port)
	l.end(c, "libc.bind", 0, err)
	return err
}

func (l *meteredLibc) Listen(fd, backlog int) error {
	c := l.begin()
	err := l.Libc.Listen(fd, backlog)
	l.end(c, "libc.listen", 0, err)
	return err
}

func (l *meteredLibc) Accept(fd int) (int, error) {
	c := l.begin()
	nfd, err := l.Libc.Accept(fd)
	l.end(c, "libc.accept", 0, err)
	return nfd, err
}

func (l *meteredLibc) Connect(fd, port int) error {
	c := l.begin()
	err := l.Libc.Connect(fd, port)
	l.end(c, "libc.connect", 0, err)
	return err
}

func (l *meteredLibc) Send(fd int, buf []byte) (int, error) {
	if l.onSend != nil {
		l.onSend(buf)
	}
	c := l.begin()
	n, err := l.Libc.Send(fd, buf)
	l.end(c, "libc.send", len(buf), err)
	return n, err
}

func (l *meteredLibc) Recv(fd int, buf []byte) (int, error) {
	c := l.begin()
	n, err := l.Libc.Recv(fd, buf)
	l.end(c, "libc.recv", n, err)
	return n, err
}

func (l *meteredLibc) Getpid() int {
	c := l.begin()
	pid := l.Libc.Getpid()
	l.end(c, "libc.getpid", 0, nil)
	return pid
}

func (l *meteredLibc) Yield() {
	c := l.begin()
	l.Libc.Yield()
	l.end(c, "libc.yield", 0, nil)
}

func (l *meteredLibc) Print(msg string) error {
	c := l.begin()
	err := l.Libc.Print(msg)
	l.end(c, "libc.print", len(msg), err)
	return err
}

package bench

import (
	"fmt"

	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/sdk"
	"veil/internal/snp"
)

// Fig4Row is one bar of Fig. 4: the cost of redirecting one popular system
// call from a VeilS-Enc enclave to the outside world, against its native
// cost, with the Table 3 parameters.
type Fig4Row struct {
	Syscall       string
	Params        string
	NativeCycles  uint64
	EnclaveCycles uint64
	Ratio         float64
}

// syscallCase defines one benchmarked call: prep runs once (unmeasured),
// op is the measured call, post runs after each op (unmeasured cleanup).
type syscallCase struct {
	name   string
	params string
	build  func(c *cvm.CVM, lc sdk.Libc) (op func() error, post func())
}

func fig4Cases() []syscallCase {
	return []syscallCase{
		{
			name:   "open",
			params: "Open a text file with read and write permissions",
			build: func(c *cvm.CVM, lc sdk.Libc) (func() error, func()) {
				var fd int
				op := func() error {
					var err error
					fd, err = lc.Open("/tmp/bench.txt", kernel.ORdwr, 0)
					return err
				}
				post := func() { lc.Close(fd) }
				return op, post
			},
		},
		{
			name:   "read",
			params: "Read 10 KB from a file to a memory-mapped region",
			build: func(c *cvm.CVM, lc sdk.Libc) (func() error, func()) {
				fd, _ := lc.Open("/tmp/bench10k.bin", kernel.ORdonly, 0)
				buf := make([]byte, 10<<10)
				op := func() error {
					if _, err := lc.Pread(fd, buf, 0); err != nil {
						return err
					}
					return nil
				}
				return op, func() {}
			},
		},
		{
			name:   "write",
			params: "Write 10 KB from a memory-mapped region to a file",
			build: func(c *cvm.CVM, lc sdk.Libc) (func() error, func()) {
				fd, _ := lc.Open("/tmp/bench-out.bin", kernel.OCreat|kernel.OWronly, 0o644)
				buf := make([]byte, 10<<10)
				op := func() error {
					_, err := lc.Pwrite(fd, buf, 0)
					return err
				}
				return op, func() {}
			},
		},
		{
			name:   "mmap",
			params: "Map a 10KB region using the NULL file descriptor",
			build: func(c *cvm.CVM, lc sdk.Libc) (func() error, func()) {
				var addr uint64
				op := func() error {
					var err error
					addr, err = lc.Mmap(10<<10, kernel.ProtRead|kernel.ProtWrite)
					return err
				}
				post := func() { lc.Munmap(addr) }
				return op, post
			},
		},
		{
			name:   "munmap",
			params: "Unmap the 10KB region previously mapped",
			// The measured op is mmap+munmap; the harness subtracts the
			// mmap row's average to isolate munmap.
			build: func(c *cvm.CVM, lc sdk.Libc) (func() error, func()) {
				op := func() error {
					addr, err := lc.Mmap(10<<10, kernel.ProtRead|kernel.ProtWrite)
					if err != nil {
						return err
					}
					return lc.Munmap(addr)
				}
				return op, func() {}
			},
		},
		{
			name:   "socket",
			params: "Open a socket using AF_INET and SOCK_STREAM",
			build: func(c *cvm.CVM, lc sdk.Libc) (func() error, func()) {
				var fd int
				op := func() error {
					var err error
					fd, err = lc.Socket(kernel.AFInet, kernel.SockStream)
					return err
				}
				post := func() { lc.Close(fd) }
				return op, post
			},
		},
		{
			name:   "printf",
			params: `Print a "Hello World!" message to the console`,
			build: func(c *cvm.CVM, lc sdk.Libc) (func() error, func()) {
				op := func() error { return lc.Print("Hello World!\n") }
				return op, func() {}
			},
		},
	}
}

func fig4Seed(c *cvm.CVM) error {
	if err := writeFileDirect(c, "/tmp/bench.txt", []byte("bench file contents")); err != nil {
		return err
	}
	return writeFileDirect(c, "/tmp/bench10k.bin", make([]byte, 10<<10))
}

func writeFileDirect(c *cvm.CVM, path string, data []byte) error {
	ino, err := c.K.VFS().Create(path, 0o644, false)
	if err != nil {
		return err
	}
	ino.Data = append(ino.Data[:0], data...)
	return nil
}

// measureSyscalls runs every case for `iters` iterations under one libc,
// measuring only the op cycles. The munmap case includes an unmeasured —
// wait, no: its op must be measured alone; the map half is folded into the
// measured op there, so its row reports mmap+munmap minus the mmap row.
func measureSyscalls(c *cvm.CVM, lc sdk.Libc, iters int, out map[string]uint64) error {
	for _, cs := range fig4Cases() {
		op, post := cs.build(c, lc)
		var total uint64
		for i := 0; i < iters; i++ {
			before := c.M.Clock().Cycles()
			if err := op(); err != nil {
				return fmt.Errorf("%s: %w", cs.name, err)
			}
			total += c.M.Clock().Cycles() - before
			post()
		}
		out[cs.name] = total / uint64(iters)
	}
	// munmap measured jointly with its paired mmap: subtract.
	if out["munmap"] > out["mmap"] {
		out["munmap"] -= out["mmap"]
	}
	return nil
}

// Fig4Attr regenerates Fig. 4 (enclave system call redirection cost, Table 3
// parameters) with `iters` iterations per call (the paper uses 10,000), plus
// the per-CostKind cycle attribution of the enclave side of the experiment
// (everything measured inside app.Enter), sourced from the enclave CVM's obs
// metrics registry.
func Fig4Attr(iters int) ([]Fig4Row, snp.Attribution, error) {
	if iters <= 0 {
		iters = 10000
	}
	// Native side.
	nc, err := bootFor(ModeNative, 41)
	if err != nil {
		return nil, snp.Attribution{}, err
	}
	if err := fig4Seed(nc); err != nil {
		return nil, snp.Attribution{}, err
	}
	nativeRes := map[string]uint64{}
	p := nc.K.Spawn("fig4-native")
	if err := measureSyscalls(nc, &sdk.DirectLibc{K: nc.K, P: p}, iters, nativeRes); err != nil {
		return nil, snp.Attribution{}, err
	}

	// Enclave side.
	ec, err := bootFor(ModeEnclave, 42)
	if err != nil {
		return nil, snp.Attribution{}, err
	}
	if err := fig4Seed(ec); err != nil {
		return nil, snp.Attribution{}, err
	}
	encRes := map[string]uint64{}
	var progErr error
	prog := sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
		if err := measureSyscalls(ec, lc, iters, encRes); err != nil {
			progErr = err
			return 1
		}
		return 0
	})
	host := ec.K.Spawn("fig4-host")
	app, err := sdk.LaunchEnclave(ec, host, prog, sdk.EnclaveConfig{RegionPages: 64})
	if err != nil {
		return nil, snp.Attribution{}, err
	}
	attrBefore := attrSnapshot(ec)
	if _, err := app.Enter(); err != nil {
		return nil, snp.Attribution{}, err
	}
	attr := attrSnapshot(ec).Sub(attrBefore)
	if progErr != nil {
		return nil, snp.Attribution{}, progErr
	}

	var rows []Fig4Row
	for _, cs := range fig4Cases() {
		n, e := nativeRes[cs.name], encRes[cs.name]
		r := Fig4Row{Syscall: cs.name, Params: cs.params, NativeCycles: n, EnclaveCycles: e}
		if n > 0 {
			r.Ratio = float64(e) / float64(n)
		}
		rows = append(rows, r)
	}
	return rows, attr, nil
}

// The measured enclave redirection adds two hypervisor-relayed switches:
var _ = snp.CyclesDomainSwitch

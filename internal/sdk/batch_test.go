package sdk

import (
	"bytes"
	"errors"
	"testing"

	"veil/internal/kernel"
)

func TestBatchFlushesWithSingleExit(t *testing.T) {
	c := bootVeil(t)
	var flushed, pending int
	prog := ProgramFunc(func(lc Libc, args []string) int {
		er := lc.(*EnclaveRuntime)
		fd, err := er.Open("/tmp/batch.log", kernel.OCreat|kernel.OWronly, 0o644)
		if err != nil {
			return 1
		}
		exitsBefore := er.Exits()
		b := er.StartBatch()
		for i := 0; i < 20; i++ {
			if err := b.Write(fd, []byte("record\n")); err != nil {
				return 2
			}
		}
		pending = b.Pending()
		n, err := b.Flush()
		if err != nil {
			return 3
		}
		flushed = n
		if er.Exits()-exitsBefore != 1 {
			return 4 // the whole batch must cost exactly one exit
		}
		return 0
	})
	a, _ := launch(t, c, prog)
	rc, err := a.Enter()
	if err != nil || rc != 0 {
		t.Fatalf("rc=%d err=%v", rc, err)
	}
	if pending != 20 || flushed != 20 {
		t.Fatalf("pending=%d flushed=%d", pending, flushed)
	}
	ino, err := c.K.VFS().Lookup("/tmp/batch.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(ino.Data) != 20*7 {
		t.Fatalf("file has %d bytes", len(ino.Data))
	}
}

func TestBatchMixedOperations(t *testing.T) {
	c := bootVeil(t)
	prog := ProgramFunc(func(lc Libc, args []string) int {
		er := lc.(*EnclaveRuntime)
		db, err := er.Open("/tmp/mix.db", kernel.OCreat|kernel.ORdwr, 0o644)
		if err != nil {
			return 1
		}
		idx, err := er.Open("/tmp/mix.idx", kernel.OCreat|kernel.ORdwr, 0o644)
		if err != nil {
			return 1
		}
		b := er.StartBatch()
		b.Write(db, []byte("HDR!"))
		b.Write(idx, []byte("index"))
		b.Write(db, []byte("tail"))
		b.Print("batched hello\n")
		n, err := b.Flush()
		if err != nil || n != 4 {
			return 2
		}
		// Verify through normal (synchronous) calls: each descriptor got
		// its writes, in queue order.
		buf := make([]byte, 8)
		if _, err := er.Pread(db, buf, 0); err != nil || string(buf) != "HDR!tail" {
			return 3
		}
		if _, err := er.Pread(idx, buf[:5], 0); err != nil || string(buf[:5]) != "index" {
			return 4
		}
		return 0
	})
	a, _ := launch(t, c, prog)
	rc, err := a.Enter()
	if err != nil || rc != 0 {
		t.Fatalf("rc=%d err=%v", rc, err)
	}
}

func TestBatchReportsDeferredErrors(t *testing.T) {
	c := bootVeil(t)
	prog := ProgramFunc(func(lc Libc, args []string) int {
		er := lc.(*EnclaveRuntime)
		b := er.StartBatch()
		b.Write(99, []byte("x"))           // bad fd
		b.add(87, nil, []byte("/no/such")) // unlink: replays as ENOSYS
		fd, _ := er.Open("/tmp/ok", kernel.OCreat|kernel.OWronly, 0o644)
		b.Write(fd, []byte("good"))
		n, err := b.Flush()
		if n != 1 {
			return 1 // only the good write should succeed
		}
		if !errors.Is(err, kernel.ErrBadFD) {
			return 2 // first error surfaces
		}
		return 0
	})
	a, _ := launch(t, c, prog)
	rc, err := a.Enter()
	if err != nil || rc != 0 {
		t.Fatalf("rc=%d err=%v", rc, err)
	}
}

func TestBatchAutoFlushOnOverflow(t *testing.T) {
	c := bootVeil(t)
	var exits uint64
	prog := ProgramFunc(func(lc Libc, args []string) int {
		er := lc.(*EnclaveRuntime)
		fd, _ := er.Open("/tmp/big.log", kernel.OCreat|kernel.OWronly, 0o644)
		before := er.Exits()
		b := er.StartBatch()
		big := bytes.Repeat([]byte{'z'}, 8<<10)
		for i := 0; i < 12; i++ { // 96 KiB total > staging capacity
			if err := b.Write(fd, big); err != nil {
				return 1
			}
		}
		if _, err := b.Flush(); err != nil {
			return 2
		}
		exits = er.Exits() - before
		return 0
	})
	a, _ := launch(t, c, prog)
	rc, err := a.Enter()
	if err != nil || rc != 0 {
		t.Fatalf("rc=%d err=%v", rc, err)
	}
	// More than one flush happened, but far fewer exits than 12 writes.
	if exits < 2 || exits >= 12 {
		t.Fatalf("exits = %d, want 2..11 (auto-flush batching)", exits)
	}
	ino, _ := c.K.VFS().Lookup("/tmp/big.log")
	if ino.Size() != 12*8<<10 {
		t.Fatalf("file size %d", ino.Size())
	}
}

func TestBatchVsSynchronousExitSavings(t *testing.T) {
	// The §10 projection: batching N side-effect calls turns N exits into
	// ~1, saving (N-1) domain-switch pairs.
	c := bootVeil(t)
	var syncCycles, batchCycles uint64
	prog := ProgramFunc(func(lc Libc, args []string) int {
		er := lc.(*EnclaveRuntime)
		fd, _ := er.Open("/tmp/cmp.log", kernel.OCreat|kernel.OWronly, 0o644)
		rec := []byte("entry\n")

		start := c.M.Clock().Cycles()
		for i := 0; i < 50; i++ {
			er.Write(fd, rec)
		}
		syncCycles = c.M.Clock().Cycles() - start

		start = c.M.Clock().Cycles()
		b := er.StartBatch()
		for i := 0; i < 50; i++ {
			b.Write(fd, rec)
		}
		b.Flush()
		batchCycles = c.M.Clock().Cycles() - start
		return 0
	})
	a, _ := launch(t, c, prog)
	if _, err := a.Enter(); err != nil {
		t.Fatal(err)
	}
	// The switch cost disappears but the kernel still does the writes, so
	// the ceiling is the exit share of the synchronous path (~2.5-3.5×
	// here).
	if batchCycles*5 > syncCycles*2 {
		t.Fatalf("batching saved too little: sync %d vs batch %d cycles", syncCycles, batchCycles)
	}
	t.Logf("50 writes: synchronous %d cycles, batched %d cycles (%.1fx)",
		syncCycles, batchCycles, float64(syncCycles)/float64(batchCycles))
}

// Print queues a console write.
func (b *Batch) Print(msg string) error { return b.Write(1, []byte(msg)) }

// Pending reports queued calls.
func (b *Batch) Pending() int { return len(b.calls) }

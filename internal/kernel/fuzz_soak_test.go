package kernel

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRandomSyscallSoak hammers the kernel with randomized (but typed)
// syscall sequences from several processes. The simulator must never
// panic, never halt the machine (these are all legal-if-ugly inputs, not
// RMP violations), and never corrupt allocator bookkeeping.
func TestRandomSyscallSoak(t *testing.T) {
	k := newNativeKernel(t, 1)
	rng := rand.New(rand.NewSource(20260704))

	procs := make([]*Process, 4)
	for i := range procs {
		procs[i] = k.Spawn(fmt.Sprintf("soak-%d", i))
	}
	paths := []string{"/tmp/a", "/tmp/b", "/tmp/c/d", "/no/such", "/tmp", "/dev/console"}
	openFDs := map[int][]int{}
	regions := map[int][]uint64{}

	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("kernel panicked under soak: %v", r)
		}
	}()

	for step := 0; step < 8000; step++ {
		pi := rng.Intn(len(procs))
		p := procs[pi]
		switch rng.Intn(14) {
		case 0:
			fd, err := k.Open(p, paths[rng.Intn(len(paths))], OCreat|ORdwr, 0o644)
			if err == nil {
				openFDs[pi] = append(openFDs[pi], fd)
			}
		case 1:
			if fds := openFDs[pi]; len(fds) > 0 {
				i := rng.Intn(len(fds))
				_ = k.Close(p, fds[i])
				openFDs[pi] = append(fds[:i], fds[i+1:]...)
			}
		case 2:
			if fds := openFDs[pi]; len(fds) > 0 {
				buf := make([]byte, rng.Intn(512))
				_, _ = k.Write(p, fds[rng.Intn(len(fds))], buf)
			}
		case 3:
			if fds := openFDs[pi]; len(fds) > 0 {
				buf := make([]byte, rng.Intn(512))
				_, _ = k.Read(p, fds[rng.Intn(len(fds))], buf)
			}
		case 4:
			if fds := openFDs[pi]; len(fds) > 0 {
				_, _ = k.Lseek(p, fds[rng.Intn(len(fds))], int64(rng.Intn(8192))-100, rng.Intn(4))
			}
		case 5:
			_, _ = k.Stat(p, paths[rng.Intn(len(paths))])
		case 6:
			_ = k.Unlink(p, paths[rng.Intn(len(paths))])
		case 7:
			_ = k.Rename(p, paths[rng.Intn(len(paths))], paths[rng.Intn(len(paths))])
		case 8:
			if len(regions[pi]) < 8 {
				if addr, err := k.Mmap(p, uint64(1+rng.Intn(4))*4096, ProtRead|ProtWrite); err == nil {
					regions[pi] = append(regions[pi], addr)
				}
			}
		case 9:
			if rs := regions[pi]; len(rs) > 0 {
				i := rng.Intn(len(rs))
				if err := k.Munmap(p, rs[i]); err == nil {
					regions[pi] = append(rs[:i], rs[i+1:]...)
				}
			}
		case 10:
			if rs := regions[pi]; len(rs) > 0 {
				_ = k.Mprotect(p, rs[rng.Intn(len(rs))], 4096, uint64(rng.Intn(8)))
			}
		case 11:
			_, _ = k.Socket(p, rng.Intn(4), SockStream)
		case 12:
			_ = k.Mkdir(p, fmt.Sprintf("/tmp/d%d", rng.Intn(16)), 0o755)
		case 13:
			k.SchedYield(p)
		}
		if k.m.Halted() != nil {
			t.Fatalf("step %d: machine halted: %v", step, k.m.Halted())
		}
	}

	// Teardown must succeed and release everything the soak acquired.
	free := freeFrames(k)
	for _, p := range procs {
		if err := k.Exit(p, 0); err != nil {
			t.Fatalf("exit: %v", err)
		}
	}
	if freeFrames(k) < free {
		t.Fatal("soak leaked frames past exit")
	}
}

// TestAuditedSoak repeats a shorter soak with the full ruleset enabled so
// the audit path sees the same input diversity.
func TestAuditedSoak(t *testing.T) {
	k := newNativeKernel(t, 1)
	k.Audit().SetRules(DefaultRuleset())
	rng := rand.New(rand.NewSource(42))
	p := k.Spawn("audit-soak")
	for step := 0; step < 2000; step++ {
		switch rng.Intn(4) {
		case 0:
			if fd, err := k.Open(p, "/tmp/audit-soak", OCreat|ORdwr, 0o644); err == nil {
				_, _ = k.Write(p, fd, []byte("x"))
				_ = k.Close(p, fd)
			}
		case 1:
			_ = k.Unlink(p, "/tmp/audit-soak")
		case 2:
			_, _ = k.Socket(p, AFInet, SockStream)
		case 3:
			_ = k.Setuid(p, rng.Intn(3))
		}
	}
	if k.Audit().Count() == 0 {
		t.Fatal("no audit records under soak")
	}
}

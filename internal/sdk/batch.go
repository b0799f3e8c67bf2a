package sdk

import (
	"encoding/binary"
	"fmt"
)

// Exitless system-call batching: §10 of the paper proposes minimizing
// synchronous enclave exits by batching system calls (after FlexSC). This
// implements the design as an opt-in SDK mode: side-effect-only syscalls
// (writes) queue inside the enclave and a single exit flushes the whole
// batch to the application, which replays it against the kernel; any
// other entry replays as ENOSYS. Results are deferred: Flush reports how
// many calls succeeded and the first error.
//
// Only calls whose results the program does not need inline are batchable —
// the same restriction real exitless designs carry.

// sysBatch is the pseudo-syscall number carrying a flush.
const sysBatch = 0xB47C

// batchedCall is one queued syscall.
type batchedCall struct {
	sysno uint64
	args  []uint64 // scalar args
	data  [][]byte // input payloads, in argument order
}

// Batch is a queue of deferred syscalls bound to one enclave runtime.
type Batch struct {
	e     *EnclaveRuntime
	calls []batchedCall
	bytes int
}

// maxBatchBytes bounds the serialized batch to the staging capacity.
const maxBatchBytes = stageLimit - 512

// StartBatch begins exitless batching. Calls made through the returned
// Batch queue locally; everything else on the runtime still exits normally.
func (e *EnclaveRuntime) StartBatch() *Batch {
	return &Batch{e: e}
}

func (b *Batch) add(sysno uint64, args []uint64, data ...[]byte) error {
	if b.e.dead {
		return ErrEnclaveDead
	}
	n := 16 + 8*len(args)
	for _, d := range data {
		n += 8 + len(d)
	}
	if b.bytes+n > maxBatchBytes {
		// Auto-flush when the staging area would overflow.
		if _, err := b.Flush(); err != nil {
			return err
		}
	}
	cp := make([][]byte, len(data))
	for i, d := range data {
		cp[i] = append([]byte{}, d...)
	}
	b.calls = append(b.calls, batchedCall{sysno: sysno, args: append([]uint64{}, args...), data: cp})
	b.bytes += n
	return nil
}

// Write queues write(2).
func (b *Batch) Write(fd int, buf []byte) error {
	return b.add(1, []uint64{uint64(fd), uint64(len(buf))}, buf)
}

// Flush performs one enclave exit carrying every queued call and returns
// how many the application executed successfully, plus the first error.
func (b *Batch) Flush() (int, error) {
	e := b.e
	if e.dead {
		return 0, ErrEnclaveDead
	}
	if len(b.calls) == 0 {
		return 0, nil
	}
	// Serialize into the staging area.
	var blob []byte
	var tmp [8]byte
	pu64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		blob = append(blob, tmp[:]...)
	}
	pu64(uint64(len(b.calls)))
	for _, c := range b.calls {
		pu64(c.sysno)
		pu64(uint64(len(c.args)))
		for _, a := range c.args {
			pu64(a)
		}
		pu64(uint64(len(c.data)))
		for _, d := range c.data {
			pu64(uint64(len(d)))
			blob = append(blob, d...)
		}
	}
	if len(blob) > stageLimit {
		return 0, fmt.Errorf("sdk: batch of %d bytes exceeds staging", len(blob))
	}
	if err := e.write(e.shared+stageOff, blob); err != nil {
		return 0, err
	}
	if err := e.submit(sysBatch, []ocallArg{{val: uint64(len(blob))}}, 1); err != nil {
		return 0, err
	}
	e.calls += uint64(len(b.calls))
	if err := e.exitForSyscall(); err != nil {
		return 0, err
	}
	done, errno, err := e.reply()
	if err != nil {
		return 0, err
	}
	b.calls = b.calls[:0]
	b.bytes = 0
	return int(done), errFor(errno)
}

// serveBatch replays a flushed batch on the application side. The blob,
// and so every replayed call's data, is the server's staging buffer.
func (a *AppRuntime) serveBatch(blobLen uint64) (uint64, uint64) {
	blob, err := a.readStage(stageOff, blobLen)
	if err != nil {
		return 0, errnoFor(err)
	}
	off := 0
	u64 := func() (uint64, bool) {
		if off+8 > len(blob) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(blob[off:])
		off += 8
		return v, true
	}
	count, ok := u64()
	if !ok || count > 4096 {
		return 0, 22 // EINVAL
	}
	var done uint64
	var firstErrno uint64
	for i := uint64(0); i < count; i++ {
		sysno, ok := u64()
		if !ok {
			break
		}
		nargs, ok := u64()
		if !ok || nargs > 8 {
			break
		}
		args := make([]uint64, nargs)
		for j := range args {
			if args[j], ok = u64(); !ok {
				return done, 22
			}
		}
		ndata, ok := u64()
		if !ok || ndata > 4 {
			break
		}
		data := make([][]byte, ndata)
		bad := false
		for j := range data {
			n, ok := u64()
			if !ok || off+int(n) > len(blob) {
				bad = true
				break
			}
			data[j] = blob[off : off+int(n)]
			off += int(n)
		}
		if bad {
			break
		}
		errno := a.replayBatched(sysno, args, data)
		if errno == 0 {
			done++
		} else if firstErrno == 0 {
			firstErrno = errno
		}
	}
	return done, firstErrno
}

// replayBatched executes one deferred call against the kernel. Its data
// slices alias the staging buffer serveBatch holds, so it must never read
// the stage: a stage read would overwrite the calls still to be replayed.
func (a *AppRuntime) replayBatched(sysno uint64, args []uint64, data [][]byte) uint64 {
	k, p := a.C.K, a.P
	switch sysno {
	case 1: // write(fd, buf)
		if len(args) < 1 || len(data) < 1 {
			return 22
		}
		_, err := k.Write(p, int(args[0]), data[0])
		return errnoFor(err)
	}
	return 38 // ENOSYS
}

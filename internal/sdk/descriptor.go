package sdk

import (
	"encoding/binary"

	"veil/internal/kernel"
)

// The ocall descriptor codec. An ocall crosses the shared region as one
// frame each way: the enclave writes the request header {sysno, nargs} and
// the argument words with one access each, the application reads them back
// the same way, and the reply {ret, errno} is one access in each direction.
// These four functions are the only code that touches the descriptor
// fields; each side keeps its frame in a fixed-size stack buffer.

// ocallArg is one descriptor argument slot: the scalar value, and for
// staged buffers the staging offset and length.
type ocallArg struct{ val, stage, length uint64 }

// submit writes a request frame: the header at dSysno, then words (the
// flattened argument slots, at most maxOcallArgs×3) at dArgs. It writes
// exactly those bytes, so words shorter than nargs×3 leave the rest of
// the slots as they were.
func (e *EnclaveRuntime) submit(sysno, nargs uint64, words []uint64) error {
	le := binary.LittleEndian
	var hdr [16]byte
	le.PutUint64(hdr[0:], sysno)
	le.PutUint64(hdr[8:], nargs)
	if err := e.view.Mem.Write(e.shared+dSysno, hdr[:]); err != nil {
		return err
	}
	var frame [maxOcallArgs * 24]byte
	for i, w := range words {
		le.PutUint64(frame[8*i:], w)
	}
	return e.view.Mem.Write(e.shared+dArgs, frame[:8*len(words)])
}

// reply reads the application's reply frame.
func (e *EnclaveRuntime) reply() (ret, errno uint64, err error) {
	var r [16]byte
	if err := e.view.Mem.Read(e.shared+dRet, r[:]); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(r[0:]), binary.LittleEndian.Uint64(r[8:]), nil
}

// request reads a request frame into slots and returns the syscall number
// and the used prefix of slots. A frame claiming more than maxOcallArgs
// arguments is refused before its slots are read.
func (a *AppRuntime) request(slots *[maxOcallArgs]ocallArg) (uint64, []ocallArg, error) {
	le := binary.LittleEndian
	var hdr [16]byte
	if err := a.mem.Read(a.sharedVirt+dSysno, hdr[:]); err != nil {
		return 0, nil, err
	}
	sysno, nargs := le.Uint64(hdr[0:]), le.Uint64(hdr[8:])
	if nargs > maxOcallArgs {
		return 0, nil, kernel.ErrInval
	}
	var frame [maxOcallArgs * 24]byte
	raw := frame[:nargs*24]
	if err := a.mem.Read(a.sharedVirt+dArgs, raw); err != nil {
		return 0, nil, err
	}
	args := slots[:nargs]
	for i := range args {
		w := raw[24*i:]
		args[i] = ocallArg{val: le.Uint64(w[0:]), stage: le.Uint64(w[8:]), length: le.Uint64(w[16:])}
	}
	return sysno, args, nil
}

// respond writes the reply frame.
func (a *AppRuntime) respond(ret, errno uint64) error {
	var r [16]byte
	binary.LittleEndian.PutUint64(r[0:], ret)
	binary.LittleEndian.PutUint64(r[8:], errno)
	return a.mem.Write(a.sharedVirt+dRet, r[:])
}

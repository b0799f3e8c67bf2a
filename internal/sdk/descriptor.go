package sdk

import (
	"encoding/binary"

	"veil/internal/kernel"
	"veil/internal/snp"
)

// The ocall descriptor codec. An ocall crosses the shared region as one
// frame each way, and each frame is one guest access per side, encoded or
// decoded in place through snp.AccessContext.WithSpan: the enclave writes
// the request header {sysno, nargs} and the argument words through one
// write span, the application decodes them from one read span, and the
// reply {ret, errno} is one span in each direction. These four functions
// are the only code that touches the descriptor fields; neither side
// assembles a frame in a buffer of its own.

// ocallArg is one descriptor argument slot: the scalar value, and for
// staged buffers the staging offset and length.
type ocallArg struct{ val, stage, length uint64 }

// submit encodes a request frame through one write span over
// [dSysno, dArgs+8·words): the header {sysno, len(slots)} at dSysno, then
// the first words argument words of slots, three per slot {val, stage,
// length}, from dArgs. It writes exactly those bytes, so the reply words
// between them and the slot words past them keep what they held. call
// sends every word of its slots; the pseudo-syscalls send one, the val of
// their single slot.
func (e *EnclaveRuntime) submit(sysno uint64, slots []ocallArg, words int) error {
	return e.view.Mem.WithSpan(e.shared+dSysno, dArgs-dSysno+8*words, snp.AccessWrite, func(d []byte) error {
		le := binary.LittleEndian
		le.PutUint64(d[dSysno-dSysno:], sysno)
		le.PutUint64(d[dNArgs-dSysno:], uint64(len(slots)))
		w := d[dArgs-dSysno:]
		for _, s := range slots {
			for _, v := range [3]uint64{s.val, s.stage, s.length} {
				if len(w) == 0 {
					return nil
				}
				le.PutUint64(w, v)
				w = w[8:]
			}
		}
		return nil
	})
}

// reply decodes the application's reply frame.
func (e *EnclaveRuntime) reply() (ret, errno uint64, err error) {
	err = e.view.Mem.WithSpan(e.shared+dRet, dErrno+8-dRet, snp.AccessRead, func(r []byte) error {
		ret = binary.LittleEndian.Uint64(r[dRet-dRet:])
		errno = binary.LittleEndian.Uint64(r[dErrno-dRet:])
		return nil
	})
	return ret, errno, err
}

// request decodes a request frame from one read span over the request side
// of the descriptor, [dSysno, dArgs+24·maxOcallArgs), and returns the
// syscall number and the slots dispatch reads: the first
// min(nargs, ocallSlots(sysno)) slots, decoded into slots. A frame claiming
// more than maxOcallArgs arguments is refused before any slot is decoded.
func (a *AppRuntime) request(slots *[maxServedSlots]ocallArg) (sysno uint64, args []ocallArg, err error) {
	err = a.mem.WithSpan(a.sharedVirt+dSysno, dArgs-dSysno+24*maxOcallArgs, snp.AccessRead, func(d []byte) error {
		le := binary.LittleEndian
		sysno = le.Uint64(d[dSysno-dSysno:])
		nargs := le.Uint64(d[dNArgs-dSysno:])
		if nargs > maxOcallArgs {
			return kernel.ErrInval
		}
		args = slots[:min(nargs, uint64(ocallSlots(sysno)))]
		for i := range args {
			w := d[dArgs-dSysno+24*i:]
			args[i] = ocallArg{val: le.Uint64(w[0:]), stage: le.Uint64(w[8:]), length: le.Uint64(w[16:])}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return sysno, args, nil
}

// Respond encodes the reply frame {ret, errno}. ServeOcall is its honest
// caller; attack drills call it directly to answer an OCALL the way a
// hostile host would.
func (a *AppRuntime) Respond(ret, errno uint64) error {
	return a.mem.WithSpan(a.sharedVirt+dRet, dErrno+8-dRet, snp.AccessWrite, func(r []byte) error {
		binary.LittleEndian.PutUint64(r[dRet-dRet:], ret)
		binary.LittleEndian.PutUint64(r[dErrno-dRet:], errno)
		return nil
	})
}

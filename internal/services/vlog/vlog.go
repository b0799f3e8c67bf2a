// Package vlog implements VeilS-Log, Veil's system-audit-log protection
// service (§6.3).
//
// The service reserves an append-only log store in Dom-SRV memory. The
// kernel's auditing framework is hooked at record-finalization time: each
// record crosses an IDCB and a domain switch *before* the audited event
// executes (execute-ahead protection), so a subsequent kernel compromise
// cannot rewrite history. Only the remote user — over VeilMon's
// authenticated secure channel — can read or truncate the store.
package vlog

import (
	"encoding/binary"
	"fmt"

	"veil/internal/core"
	"veil/internal/snp"
)

// Service is a VeilS-Log instance.
type Service struct {
	mon *core.Monitor

	storePages uint64
	frames     []uint64
	writeOff   uint64 // next free byte within the store
	count      uint64
	dropped    uint64
}

// New creates the service and registers it with VeilMon. storePages sizes
// the reserved region (the paper suggests ~1 GB for a day of logs; the
// store must be drained by the user before it fills).
func New(mon *core.Monitor, storePages uint64) *Service {
	s := &Service{mon: mon, storePages: storePages}
	mon.RegisterService(core.SvcLOG, s.handle)
	mon.OnBoot(s.init)
	mon.RegisterSecureService(core.SvcLOG, s.secure)
	return s
}

// init reserves and prepares the store during monitor boot. The frames come
// from the monitor heap and are granted to Dom-SRV (VMPL1) read/write —
// Dom-UNT gets nothing, which is the whole point.
func (s *Service) init() error {
	s.frames = make([]uint64, 0, s.storePages)
	var allocErr error
	for range s.storePages {
		f, err := s.mon.AllocFrame()
		if err != nil {
			allocErr = fmt.Errorf("vlog: store allocation: %w", err)
			break
		}
		s.frames = append(s.frames, f)
	}
	grant := [1]snp.Grant{{Target: snp.VMPL1, Perms: snp.PermRW}}
	if err := s.mon.Machine().RunRMP(&snp.RMPRun{Caller: snp.VMPL0, Pages: s.frames, Grants: grant[:]}); err != nil {
		return err
	}
	return allocErr
}

// Capacity returns the store size in bytes.
func (s *Service) Capacity() uint64 { return s.storePages * snp.PageSize }

// handle serves OS requests arriving in Dom-SRV.
func (s *Service) handle(vcpu int, op uint8, payload []byte) (uint32, []byte) {
	switch op {
	case core.OpLogAppend:
		if s.append(payload) {
			return core.StatusOK, nil
		}
		return core.StatusError, nil
	case core.OpLogStats:
		var out [24]byte
		binary.LittleEndian.PutUint64(out[0:], s.count)
		binary.LittleEndian.PutUint64(out[8:], s.writeOff)
		binary.LittleEndian.PutUint64(out[16:], s.dropped)
		return core.StatusOK, out[:]
	}
	return core.StatusError, nil
}

// append stores one length-prefixed record. When the store is full the
// record is dropped and counted — the operator must retrieve logs before
// overflow (§6.3).
func (s *Service) append(rec []byte) bool {
	need := uint64(4 + len(rec))
	if s.writeOff+need > s.Capacity() {
		s.dropped++
		return false
	}
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(rec)))
	if err := s.storeWrite(s.writeOff, lenb[:], rec); err != nil {
		return false
	}
	s.writeOff += need
	s.count++
	return true
}

// storeWrite writes prefix and then rec at off as one run, as Dom-SRV
// software, appending straight into the RMP-checked frames: each store
// page the run touches takes one write span.
func (s *Service) storeWrite(off uint64, prefix, rec []byte) error {
	m := s.mon.Machine()
	for left := uint64(len(prefix) + len(rec)); left > 0; {
		page := off / snp.PageSize
		if page >= uint64(len(s.frames)) {
			return fmt.Errorf("vlog: write past store end")
		}
		po := off % snp.PageSize
		n := min(snp.PageSize-po, left)
		dst, err := m.Span(snp.VMPL1, snp.CPL0, s.frames[page]+po, int(n), snp.AccessWrite)
		if err != nil {
			return err
		}
		c := copy(dst, prefix)
		prefix = prefix[c:]
		rec = rec[copy(dst[c:], rec):]
		off += n
		left -= n
	}
	return nil
}

// storeRead reads back from the store as Dom-SRV software, directly into
// one result buffer (no per-page staging).
func (s *Service) storeRead(off uint64, n uint64) ([]byte, error) {
	m := s.mon.Machine()
	out := make([]byte, n)
	pos := uint64(0)
	for pos < n {
		page := off / snp.PageSize
		if page >= uint64(len(s.frames)) {
			return nil, fmt.Errorf("vlog: read past store end")
		}
		po := off % snp.PageSize
		c := snp.PageSize - po
		if c > n-pos {
			c = n - pos
		}
		src, err := m.Span(snp.VMPL1, snp.CPL0, s.frames[page]+po, int(c), snp.AccessRead)
		if err != nil {
			return nil, err
		}
		copy(out[pos:], src)
		off += c
		pos += c
	}
	return out, nil
}

// Records returns all stored records (trusted-side inspection for tests
// and the user-facing retrieval path).
func (s *Service) Records() ([][]byte, error) {
	var out [][]byte
	off := uint64(0)
	for i := uint64(0); i < s.count; i++ {
		lb, err := s.storeRead(off, 4)
		if err != nil {
			return nil, err
		}
		n := uint64(binary.LittleEndian.Uint32(lb))
		rec, err := s.storeRead(off+4, n)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
		off += 4 + n
	}
	return out, nil
}

// Count returns the number of stored records.
func (s *Service) Count() uint64 { return s.count }

// Dropped returns how many records were lost to overflow.
func (s *Service) Dropped() uint64 { return s.dropped }

// fetchBatchBytes bounds one FETCH reply so the sealed response fits the
// IDCB payload limit (2040 bytes minus channel framing).
const fetchBatchBytes = 1500

// secure serves the remote user's channel commands:
//
//	"STATS"               → "count=N bytes=B dropped=D"
//	"FETCH"               → records from index 0, one batch
//	"FETCH"+u32(start)    → records from `start`, one batch
//	"CLEAR"               → truncate the store (only the user may, §8.2)
//
// A FETCH reply is: total u32, returned u32, then `returned` records each
// prefixed by a u32 length. Callers loop until start+returned == total
// (FetchAll does this).
func (s *Service) secure(msg []byte) ([]byte, error) {
	cmd := string(msg)
	switch {
	case cmd == "STATS":
		return []byte(fmt.Sprintf("count=%d bytes=%d dropped=%d", s.count, s.writeOff, s.dropped)), nil
	case cmd == "CLEAR":
		s.writeOff, s.count = 0, 0
		return []byte("cleared"), nil
	case len(msg) >= 5 && string(msg[:5]) == "FETCH":
		start := uint32(0)
		if len(msg) == 9 {
			start = binary.LittleEndian.Uint32(msg[5:])
		} else if len(msg) != 5 {
			return nil, fmt.Errorf("vlog: malformed FETCH")
		}
		recs, err := s.Records()
		if err != nil {
			return nil, err
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint32(out[0:], uint32(len(recs)))
		returned := uint32(0)
		for i := int(start); i < len(recs); i++ {
			if len(out)+4+len(recs[i]) > fetchBatchBytes {
				break
			}
			var lenb [4]byte
			binary.LittleEndian.PutUint32(lenb[:], uint32(len(recs[i])))
			out = append(out, lenb[:]...)
			out = append(out, recs[i]...)
			returned++
		}
		binary.LittleEndian.PutUint32(out[4:], returned)
		return out, nil
	}
	return nil, fmt.Errorf("vlog: unknown command %q", msg)
}

// FetchAll drains the whole protected store through a secure-channel
// request function (typically core.RemoteUser.Request bound to a stub),
// following the batched FETCH protocol.
func FetchAll(request func(msg []byte) ([]byte, error)) ([][]byte, error) {
	var out [][]byte
	start := uint32(0)
	for {
		msg := append([]byte("FETCH"), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(msg[5:], start)
		reply, err := request(msg)
		if err != nil {
			return nil, err
		}
		if len(reply) < 8 {
			return nil, fmt.Errorf("vlog: short FETCH reply")
		}
		total := binary.LittleEndian.Uint32(reply[0:])
		returned := binary.LittleEndian.Uint32(reply[4:])
		off := 8
		for i := uint32(0); i < returned; i++ {
			if off+4 > len(reply) {
				return nil, fmt.Errorf("vlog: truncated FETCH reply")
			}
			n := int(binary.LittleEndian.Uint32(reply[off:]))
			off += 4
			if off+n > len(reply) {
				return nil, fmt.Errorf("vlog: truncated FETCH record")
			}
			out = append(out, append([]byte{}, reply[off:off+n]...))
			off += n
		}
		start += returned
		if start >= total || returned == 0 {
			return out, nil
		}
	}
}

package core

import (
	"testing"

	"veil/internal/snp"
)

// FuzzIDCBRequest feeds arbitrary bytes into the IDCB request decoder via
// raw page writes — the exact channel a hostile OS controls. The decoder
// must never panic and never return a payload longer than the frame allows.
func FuzzIDCBRequest(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 4, 0, 0, 0, 'a', 'b', 'c', 'd'})
	f.Add([]byte{9, 9, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		m := snp.NewMachine(snp.Config{MemBytes: 2 * snp.PageSize, VCPUs: 1})
		if err := m.HVAssignPage(0); err != nil {
			t.Fatal(err)
		}
		if err := m.PValidate(snp.VMPL0, 0, true); err != nil {
			t.Fatal(err)
		}
		if len(raw) > snp.PageSize {
			raw = raw[:snp.PageSize]
		}
		if len(raw) > 0 {
			if err := m.GuestWritePhys(snp.VMPL0, snp.CPL0, 0, raw); err != nil {
				t.Fatal(err)
			}
		}
		req, err := ReadIDCBRequest(m, snp.VMPL0, 0)
		if err != nil {
			return
		}
		if len(req.Payload) > IDCBPayloadMax {
			t.Fatalf("decoder returned %d-byte payload", len(req.Payload))
		}
	})
}

// FuzzDecoder exercises the payload decoder the dispatch handlers rely on:
// arbitrary bytes must either decode cleanly or latch an error — never
// panic, never read out of bounds.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add((&enc{}).u64(7).u32(8).u8(9).bytes([]byte("x")).b)

	f.Fuzz(func(t *testing.T, raw []byte) {
		d := &dec{b: raw}
		_ = d.u64()
		_ = d.u32()
		_ = d.u8()
		_ = d.bytes()
		_ = d.bytes()
		if d.err == nil && d.off > len(raw) {
			t.Fatal("decoder read past the buffer without error")
		}
	})
}

// bytes appends a u32 length and then v: a length-prefixed field, the
// shape FuzzDecoder feeds the decoder's bounds checks.
func (e *enc) bytes(v []byte) *enc {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
	return e
}

// bytes reads a u32 length and then that many bytes, failing instead of
// reading past the buffer whatever the length claims.
func (d *dec) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// Package kci implements VeilS-Kci, Veil's kernel code integrity service
// (§6.1).
//
// It enforces write-or-execute (W⊕X) on kernel memory with RMP permission
// vectors — protection the compromised kernel cannot lift, because
// RMPADJUST at Dom-UNT on restricted pages faults — and it owns the whole
// module-installation path after allocation: signature verification,
// copying, relocation against a protected symbol table, and text
// write-protection. Performing installation inside the service (rather
// than merely checking a signature) closes the classic TOCTOU window where
// a root attacker rewrites the module between verification and use.
package kci

import (
	"crypto/ed25519"
	"fmt"

	"veil/internal/core"
	"veil/internal/kernel"
	"veil/internal/snp"
	"veil/internal/vmod"
)

// CyclesSigVerify mirrors the kernel-side constant: the signature check
// runs inside the service under Veil.
const CyclesSigVerify = kernel.CyclesSigVerify

// maxStagedImage bounds the per-VCPU staging buffer.
const maxStagedImage = 8 << 20

type module struct {
	handle int
	name   string
	frames []uint64
	text   int // frames[:text] hold the write-protected text
}

// Service is a VeilS-Kci instance.
type Service struct {
	mon *core.Monitor

	signKey ed25519.PublicKey
	// symtab is the protected copy of the kernel's export table, snapshot
	// at boot from the measured image — the kernel cannot later feed the
	// relocator bogus addresses.
	symtab map[string]uint64

	staging map[int][]byte // per VCPU
	modules map[int]*module
	next    int
}

// New creates the service and registers it with VeilMon. signKey is the
// module-signing key and symtab the kernel export table, both taken from
// the measured boot image; [textLo, textHi) is the kernel text, which
// VeilS-Kci write-protects when monitor boot runs its hook.
func New(mon *core.Monitor, signKey ed25519.PublicKey, symtab map[string]uint64, textLo, textHi uint64) *Service {
	snapshot := make(map[string]uint64, len(symtab))
	for k, v := range symtab {
		snapshot[k] = v
	}
	s := &Service{
		mon:     mon,
		signKey: signKey,
		symtab:  snapshot,
		staging: make(map[int][]byte),
		modules: make(map[int]*module),
		next:    1,
	}
	mon.RegisterService(core.SvcKCI, s.handle)
	mon.OnBoot(func() error { return s.activate(textLo, textHi) })
	return s
}

func (s *Service) handle(vcpu int, op uint8, payload []byte) (uint32, []byte) {
	switch op {
	case core.OpKciStage:
		if len(s.staging[vcpu])+len(payload) > maxStagedImage {
			return core.StatusError, nil
		}
		s.staging[vcpu] = append(s.staging[vcpu], payload...)
		return core.StatusOK, nil
	case core.OpKciLoad:
		return s.serveLoad(vcpu, payload)
	case core.OpKciFree:
		return s.serveFree(payload)
	}
	return core.StatusError, nil
}

// serveLoad is the §6.1 module-installation path.
func (s *Service) serveLoad(vcpu int, payload []byte) (uint32, []byte) {
	image := s.staging[vcpu]
	delete(s.staging, vcpu)
	if len(image) == 0 {
		return core.StatusError, nil
	}

	d := decFrames(payload)
	if d == nil {
		return core.StatusError, nil
	}
	// Sanitize the OS-chosen destination frames (§8.1): they must not
	// alias protected memory, kernel and module text included.
	for _, f := range d {
		if s.mon.Sanitize(f, snp.PageSize) != nil {
			return core.StatusDenied, nil
		}
	}

	// Verify the signature over the staged image — the copy the kernel
	// can no longer touch.
	s.mon.Machine().Clock().Charge(snp.CostCompute, CyclesSigVerify)
	if err := vmod.Verify(s.signKey, image); err != nil {
		return core.StatusDenied, nil
	}
	parsed, err := vmod.Parse(image)
	if err != nil {
		return core.StatusError, nil
	}
	if parsed.InstalledSize() != len(d)*snp.PageSize {
		return core.StatusError, nil
	}

	// Relocate against the *protected* symbol table.
	text := append([]byte(nil), parsed.Text...)
	if err := vmod.Relocate(text, parsed.Relocs, s.symtab); err != nil {
		return core.StatusError, nil
	}

	// Install sections into the kernel frames as Dom-SRV software.
	if err := s.writeFrames(d, 0, text); err != nil {
		return core.StatusError, nil
	}
	if err := s.writeFrames(d, parsed.TextPages(), parsed.Data); err != nil {
		return core.StatusError, nil
	}

	// Write-protect the prepared text at Dom-UNT: readable and
	// supervisor-executable, never writable. The text frames join the
	// protected regions, so no later OS request can name them.
	for i := 0; i < parsed.TextPages(); i++ {
		if err := s.mon.Machine().RMPAdjust(snp.VMPL1, d[i], snp.VMPL3, core.KernelTextPerms); err != nil {
			return core.StatusError, nil
		}
	}
	if err := s.mon.ProtectPages(d[:parsed.TextPages()], textLabel(s.next)); err != nil {
		return core.StatusError, nil
	}

	m := &module{handle: s.next, name: parsed.Name, frames: d, text: parsed.TextPages()}
	s.next++
	s.modules[m.handle] = m
	out := make([]byte, 4)
	out[0] = byte(m.handle)
	out[1] = byte(m.handle >> 8)
	out[2] = byte(m.handle >> 16)
	out[3] = byte(m.handle >> 24)
	return core.StatusOK, out
}

func decFrames(payload []byte) []uint64 {
	if len(payload) < 4 {
		return nil
	}
	n := int(uint32(payload[0]) | uint32(payload[1])<<8 | uint32(payload[2])<<16 | uint32(payload[3])<<24)
	if n <= 0 || len(payload) != 4+8*n {
		return nil
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		var v uint64
		for b := 0; b < 8; b++ {
			v |= uint64(payload[4+8*i+b]) << (8 * b)
		}
		out[i] = v
	}
	return out
}

func (s *Service) writeFrames(frames []uint64, startFrame int, data []byte) error {
	m := s.mon.Machine()
	for off := 0; off < len(data); off += snp.PageSize {
		end := off + snp.PageSize
		if end > len(data) {
			end = len(data)
		}
		fi := startFrame + off/snp.PageSize
		if fi >= len(frames) {
			return fmt.Errorf("kci: section overflows frames")
		}
		dst, err := m.Span(snp.VMPL1, snp.CPL0, frames[fi], end-off, snp.AccessWrite)
		if err != nil {
			return err
		}
		copy(dst, data[off:end])
		m.Clock().Charge(snp.CostPageCopy, uint64(end-off)*snp.CyclesPageCopy4K/snp.PageSize+1)
	}
	return nil
}

// serveFree lifts a module's text protection and forgets it (free_module).
func (s *Service) serveFree(payload []byte) (uint32, []byte) {
	if len(payload) != 4 {
		return core.StatusError, nil
	}
	h := int(uint32(payload[0]) | uint32(payload[1])<<8 | uint32(payload[2])<<16 | uint32(payload[3])<<24)
	m, ok := s.modules[h]
	if !ok {
		return core.StatusError, nil
	}
	// Scrub the whole installed image before returning the frames to the
	// kernel, then lift the text protection.
	for _, f := range m.frames {
		span, err := s.mon.Machine().Span(snp.VMPL1, snp.CPL0, f, snp.PageSize, snp.AccessWrite)
		if err != nil {
			return core.StatusError, nil
		}
		clear(span)
		s.mon.Machine().Clock().Charge(snp.CostPageCopy, snp.CyclesPageCopy4K)
	}
	for i := 0; i < m.text; i++ {
		if err := s.mon.Machine().RMPAdjust(snp.VMPL1, m.frames[i], snp.VMPL3, core.KernelDataPerms); err != nil {
			return core.StatusError, nil
		}
	}
	s.mon.UnprotectLabel(textLabel(h))
	delete(s.modules, h)
	return core.StatusOK, nil
}

// activate enforces W⊕X once, from monitor boot: kernel text [lo, hi)
// loses its Dom-UNT write permission, and the kernel data above it loses
// supervisor execution (§6.1). The text joins the protected regions, so
// no OS request can name it afterwards. Even an attacker who flips NX/WP
// bits in the kernel's own page tables cannot undo this (§8.2, §8.3
// attack 2).
func (s *Service) activate(lo, hi uint64) error {
	m := s.mon.Machine()
	text := [1]snp.Grant{{Target: snp.VMPL3, Perms: core.KernelTextPerms}}
	data := [1]snp.Grant{{Target: snp.VMPL3, Perms: core.KernelDataPerms}}
	if err := m.RunRMP(&snp.RMPRun{Caller: snp.VMPL1, Lo: lo, Hi: hi, Grants: text[:]}); err != nil {
		return err
	}
	if err := m.RunRMP(&snp.RMPRun{Caller: snp.VMPL1, Lo: hi, Hi: s.mon.Layout().KernelHi, Grants: data[:]}); err != nil {
		return err
	}
	var pages []uint64
	for p := lo; p < hi; p += snp.PageSize {
		pages = append(pages, p)
	}
	return s.mon.ProtectPages(pages, "kernel-text")
}

// textLabel names a module's text frames in the protected regions.
func textLabel(handle int) string { return fmt.Sprintf("module-text-%d", handle) }

// ModuleTextFrames returns the protected text frames of a loaded module
// (tests use this to aim attacks).
func (s *Service) ModuleTextFrames(handle int) ([]uint64, bool) {
	m, ok := s.modules[handle]
	if !ok {
		return nil, false
	}
	return m.frames[:m.text], true
}

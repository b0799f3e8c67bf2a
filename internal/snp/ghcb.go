package snp

import (
	"encoding/binary"
	"fmt"
)

// GHCBPayloadSize is the size of the protocol scratch area inside a GHCB.
const GHCBPayloadSize = 2048

// GHCB is the guest-hypervisor communication block: a *shared* (unencrypted)
// page through which the guest voluntarily exposes the state a hypercall
// needs (§3, Fig. 1). Because the page is shared, everything written here is
// visible to the untrusted hypervisor — protocols must never place secrets
// in it.
//
// Like the GHCB standard, where the host reads only the fields the guest
// marks valid, an access moves only the header and Payload[:n], where
// n = min(SwScratch, GHCBPayloadSize). SwScratch carries the payload length
// for the one exit that has a payload (the guest request, both ways); every
// other exit leaves it 0. A page-state reply puts its failure count there,
// so up to that many zero bytes cross that nobody reads. Payload bytes past
// n are neither written to the page nor read from it.
type GHCB struct {
	ExitCode  uint64 // reason for the exit (see the hv package codes)
	ExitInfo1 uint64
	ExitInfo2 uint64
	SwScratch uint64
	Payload   [GHCBPayloadSize]byte
}

// Exit readies g for an exit that carries no payload and returns it: it
// sets the header (ExitInfo2 and SwScratch 0) and leaves Payload as it is,
// since with SwScratch 0 none of it crosses the page. A holder that issues
// many such exits reuses one GHCB this way instead of zero-filling a fresh
// 2 KiB block per exit.
func (g *GHCB) Exit(code, info1 uint64) *GHCB {
	g.ExitCode, g.ExitInfo1, g.ExitInfo2, g.SwScratch = code, info1, 0, 0
	return g
}

// ghcbHeaderSize is the marshalled size of the fixed GHCB fields.
const ghcbHeaderSize = 4 * 8

// ghcbSize is the total marshalled size; it must fit one page. Every access
// is RMP-checked over this whole range, however few bytes it moves.
const ghcbSize = ghcbHeaderSize + GHCBPayloadSize

// payloadLen is the number of payload bytes that cross the page.
func (g *GHCB) payloadLen() int {
	return int(min(g.SwScratch, GHCBPayloadSize))
}

// marshal encodes the header and Payload[:n] into buf (which must be at
// least ghcbSize long).
func (g *GHCB) marshal(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:], g.ExitCode)
	binary.LittleEndian.PutUint64(buf[8:], g.ExitInfo1)
	binary.LittleEndian.PutUint64(buf[16:], g.ExitInfo2)
	binary.LittleEndian.PutUint64(buf[24:], g.SwScratch)
	copy(buf[ghcbHeaderSize:], g.Payload[:g.payloadLen()])
}

// unmarshal decodes the header and Payload[:n] from buf (which must be at
// least ghcbSize long); n comes from the decoded, possibly hostile,
// SwScratch and is clamped to the payload area.
func (g *GHCB) unmarshal(buf []byte) {
	g.ExitCode = binary.LittleEndian.Uint64(buf[0:])
	g.ExitInfo1 = binary.LittleEndian.Uint64(buf[8:])
	g.ExitInfo2 = binary.LittleEndian.Uint64(buf[16:])
	g.SwScratch = binary.LittleEndian.Uint64(buf[24:])
	copy(g.Payload[:g.payloadLen()], buf[ghcbHeaderSize:])
}

// checkGHCBAligned refuses a GHCB address that is not page aligned.
func checkGHCBAligned(phys uint64) error {
	if PageOffset(phys) != 0 {
		return fmt.Errorf("snp: GHCB must be page aligned, got %#x", phys)
	}
	return nil
}

// GuestWriteGHCB stores g into the shared page at phys on behalf of guest
// software at the given VMPL/CPL. The RMP check is real: if the OS maps a
// guest-private page as a "GHCB" the write still works (it owns the page),
// but the hypervisor will be unable to read it and the exit will fail — the
// behaviour §6.2 relies on ("If the operating system does not map the GHCB
// correctly, the CVM crashes on an attempted domain switch").
func (m *Machine) GuestWriteGHCB(vmpl VMPL, cpl CPL, phys uint64, g *GHCB) error {
	if err := checkGHCBAligned(phys); err != nil {
		return err
	}
	dst, err := m.guestAccessPhys(vmpl, cpl, phys, ghcbSize, AccessWrite, 0)
	if err != nil {
		return err
	}
	g.marshal(dst)
	return nil
}

// GuestReadGHCB loads the GHCB at phys for guest software (e.g. an enclave
// reading a syscall result staged by the untrusted application).
func (m *Machine) GuestReadGHCB(vmpl VMPL, cpl CPL, phys uint64, g *GHCB) error {
	if err := checkGHCBAligned(phys); err != nil {
		return err
	}
	src, err := m.guestAccessPhys(vmpl, cpl, phys, ghcbSize, AccessRead, 0)
	if err != nil {
		return err
	}
	g.unmarshal(src)
	return nil
}

// HVReadGHCB is the hypervisor's view of a GHCB. It fails on guest-private
// pages, exactly like real hardware returning ciphertext.
func (m *Machine) HVReadGHCB(phys uint64, g *GHCB) error {
	if err := checkGHCBAligned(phys); err != nil {
		return err
	}
	src, err := m.hostAccessPhys(phys, ghcbSize, AccessRead)
	if err != nil {
		return err
	}
	g.unmarshal(src)
	return nil
}

// HVWriteGHCB lets the hypervisor stage a reply into a shared GHCB page.
func (m *Machine) HVWriteGHCB(phys uint64, g *GHCB) error {
	if err := checkGHCBAligned(phys); err != nil {
		return err
	}
	dst, err := m.hostAccessPhys(phys, ghcbSize, AccessWrite)
	if err != nil {
		return err
	}
	g.marshal(dst)
	return nil
}

// Package attest implements the remote-attestation and secure-channel
// machinery Veil relies on (§5.1): SEV-SNP launch measurement reports
// signed by the platform security processor (PSP), verification by remote
// users, and the Diffie-Hellman-derived secure channel through which a user
// talks to VeilMon (and retrieves enclave measurements and protected logs).
//
// Ed25519 stands in for AMD's report-signing chain and X25519 for the key
// agreement; the protocol structure — measurement + requester VMPL +
// caller-chosen report data, signed by a key the hypervisor cannot forge —
// is the paper's.
package attest

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"veil/internal/snp"
)

// ReportDataSize is the caller-chosen payload bound into a report (SEV-SNP
// provides 64 bytes; Veil uses it for channel key-agreement material).
const ReportDataSize = 64

// Report is a parsed attestation report.
type Report struct {
	Measurement [32]byte
	VMPL        snp.VMPL
	ReportData  [ReportDataSize]byte
}

const reportBodyLen = 32 + 1 + ReportDataSize

// PSP models the AMD platform security processor: the hardware root of
// trust that signs attestation reports. The hypervisor relays requests to
// it but cannot forge its signatures.
type PSP struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewPSP creates a PSP with a fresh signing identity read from rng (pass
// crypto/rand.Reader in production paths, a deterministic reader in tests).
func NewPSP(rng io.Reader) (*PSP, error) {
	if rng == nil {
		rng = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("attest: generate PSP key: %w", err)
	}
	return &PSP{priv: priv, pub: pub}, nil
}

// PublicKey returns the report-verification key (the analogue of AMD's
// public cert chain, known to remote users out of band).
func (p *PSP) PublicKey() ed25519.PublicKey { return p.pub }

// SignReport produces a signed attestation report. It implements
// hv.AttestationSigner. The VMPL is supplied by hardware, never by the
// requester: this is what makes "a digest requested from VMPL-0 software"
// (§5.1) meaningful to the remote verifier.
func (p *PSP) SignReport(measurement [32]byte, vmpl snp.VMPL, reportData []byte) ([]byte, error) {
	if len(reportData) > ReportDataSize {
		return nil, fmt.Errorf("attest: report data %d bytes exceeds %d", len(reportData), ReportDataSize)
	}
	body := make([]byte, reportBodyLen)
	copy(body[0:32], measurement[:])
	body[32] = byte(vmpl)
	copy(body[33:], reportData)
	sig := ed25519.Sign(p.priv, body)
	return append(body, sig...), nil
}

// ErrBadReport indicates a report failed structural or signature checks.
var ErrBadReport = errors.New("attest: invalid report")

// VerifyReport checks a report against the PSP public key and parses it.
func VerifyReport(pub ed25519.PublicKey, raw []byte) (*Report, error) {
	if len(raw) != reportBodyLen+ed25519.SignatureSize {
		return nil, fmt.Errorf("%w: length %d", ErrBadReport, len(raw))
	}
	body, sig := raw[:reportBodyLen], raw[reportBodyLen:]
	if !ed25519.Verify(pub, body, sig) {
		return nil, fmt.Errorf("%w: signature", ErrBadReport)
	}
	var r Report
	copy(r.Measurement[:], body[0:32])
	r.VMPL = snp.VMPL(body[32])
	copy(r.ReportData[:], body[33:])
	return &r, nil
}

// Region is an (address, data) pair of the boot image, mirrored from the
// hypervisor's launch regions so users can precompute measurements.
type Region struct {
	Phys uint64
	Data []byte
}

// MeasureRegions computes the launch digest over (address, data) pairs: the
// SHA-256 of each region's little-endian address followed by its contents.
// hv.Launch records it for the boot image, and users precompute the
// expected value from the boot image they built (§5.1).
func MeasureRegions(regions []Region) [32]byte {
	h := sha256.New()
	for _, r := range regions {
		var addr [8]byte
		binary.LittleEndian.PutUint64(addr[:], r.Phys)
		h.Write(addr[:])
		h.Write(r.Data)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

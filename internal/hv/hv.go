// Package hv models the untrusted host hypervisor of a SEV-SNP deployment.
//
// It implements the paper's three KVM-side changes (§7): maintaining VMSAs
// for newly-created domains, hypercall routines for hypervisor-relayed
// domain switches (§5.2, Fig. 3), and relaying automatic interrupt exits
// from enclave domains to the untrusted domain (§6.2).
//
// The host holds no guest code: each VCPU keeps a tag → VMSA page table,
// and snp.Machine.VMRUN decides what a page runs.
//
// The hypervisor is *outside* the CVM trust boundary. Its view of guest
// memory goes through the machine's HV accessors, which enforce SEV-SNP's
// confidentiality and integrity guarantees; tests drive the hostile modes
// (VMSA tampering, interrupt-relay refusal) to validate Table 2.
package hv

import (
	"errors"

	"veil/internal/snp"
)

// DomainTag identifies a switch target to the hypervisor. Tags are opaque
// to the hypervisor; the Veil framework defines their meaning (the core
// package uses one tag per privilege domain).
type DomainTag uint64

// GHCB exit codes understood by this hypervisor (the SW_EXITCODE space).
const (
	// ExitDomainSwitch requests a switch to the domain in ExitInfo1.
	ExitDomainSwitch uint64 = 0x8000_1001
	// ExitRegisterVMSA registers the VMSA at ExitInfo1 under the tag in
	// ExitInfo2 for the exiting VCPU ("maintain VMSAs for newly-created
	// domains", §7).
	ExitRegisterVMSA uint64 = 0x8000_1002
	// ExitStartVCPU asks the hypervisor to begin executing the VCPU whose
	// boot VMSA is in ExitInfo1 (AP boot / hotplug, §5.3).
	ExitStartVCPU uint64 = 0x8000_1003
	// ExitPageState requests a page-state change: ExitInfo1 = first page
	// physical address, ExitInfo2 = page count<<1 | op (1 = assign to
	// guest, 0 = reclaim/share).
	ExitPageState uint64 = 0x8000_1004
	// ExitGuestRequest relays an attestation report request to the PSP.
	// The payload carries the report data; the response overwrites it.
	ExitGuestRequest uint64 = 0x8000_1005
	// ExitIO is a generic device-I/O exit (contents are opaque here).
	ExitIO uint64 = 0x8000_1006
	// ExitRingDoorbell requests a switch to the domain in ExitInfo1 to
	// drain its service submission ring. Architecturally identical to
	// ExitDomainSwitch — one exit/enter pair each way — but the target is
	// entered with ReasonDoorbell so it drains the whole batch instead of
	// serving a single IDCB request.
	ExitRingDoorbell uint64 = 0x8000_1007
)

// InterruptMode selects how the hypervisor treats automatic exits taken
// while a non-OS domain runs.
type InterruptMode int

const (
	// RelayToUntrusted follows Veil's instructions: interrupts taken
	// during enclave execution resume Dom-UNT for handling (§6.2).
	RelayToUntrusted InterruptMode = iota
	// RefuseRelay is the hostile mode of Table 2: the hypervisor forces
	// interrupt handling in the interrupted (enclave) domain. Because the
	// OS interrupt handler is unmapped/unexecutable there, the CVM halts
	// with #NPF — the defence the paper describes.
	RefuseRelay
	// MisrouteVCPU is a second hostile mode: the host delivers the
	// interrupt to a different VCPU than the one the device targeted. The
	// wrong VCPU's OS handler runs (harmlessly); the intended VCPU never
	// sees its completion wake-up. The guest cannot prevent this — the
	// SMP scheduler must detect the lost wake-up and refuse to keep
	// scheduling rather than deadlock.
	MisrouteVCPU
	// DropInterrupt is the quietest hostile mode: the host swallows the
	// injection entirely. Nothing executes in the guest; as with
	// MisrouteVCPU, detection is the scheduler's job.
	DropInterrupt

	// NumInterruptModes is the delivery-mode catalog size (the model
	// checker enumerates all of them per injected interrupt).
	NumInterruptModes
)

var interruptModeNames = [NumInterruptModes]string{
	"relay-to-untrusted", "refuse-relay", "misroute-vcpu", "drop-interrupt",
}

// String returns the delivery mode's catalog name, so counterexample
// traces and attack evidence read "drop-interrupt" instead of "3".
func (m InterruptMode) String() string {
	if m >= 0 && m < NumInterruptModes {
		return interruptModeNames[m]
	}
	return "interrupt-mode(?)"
}

// AttestationSigner abstracts the AMD PSP: it signs attestation reports
// binding the launch measurement, the requesting VMPL, and caller-chosen
// report data. The hypervisor relays requests to it but cannot forge its
// signatures.
type AttestationSigner interface {
	SignReport(measurement [32]byte, vmpl snp.VMPL, reportData []byte) ([]byte, error)
}

// ErrNoGHCB indicates the exiting VCPU had no (readable) GHCB; on real
// hardware this terminates the guest.
var ErrNoGHCB = errors.New("hv: VMGEXIT without readable GHCB")

// ErrPolicy indicates a domain-switch request violated the GHCB policy the
// guest installed; the hypervisor refuses and the CVM effectively crashes
// on the attempted switch (§6.2).
var ErrPolicy = errors.New("hv: domain switch violates GHCB policy")

// vcpu is the host's bookkeeping for one VCPU (struct vcpu_svm on a real
// host). bindings name its switch targets' VMSA pages in registration order:
// a VCPU has a handful (one per privilege domain, plus one per enclave
// thread placed on it), so a scan finds a tag faster than hashing it.
type vcpu struct {
	id          int
	currentVMSA uint64
	started     bool
	bindings    []binding
}

type binding struct {
	tag      DomainTag
	vmsaPhys uint64
}

// binding returns the VCPU's switch target for tag.
func (c *vcpu) binding(tag DomainTag) (binding, bool) {
	for _, b := range c.bindings {
		if b.tag == tag {
			return b, true
		}
	}
	return binding{}, false
}

// bind registers b, replacing an earlier binding of the same tag.
func (c *vcpu) bind(b binding) {
	for i := range c.bindings {
		if c.bindings[i].tag == b.tag {
			c.bindings[i] = b
			return
		}
	}
	c.bindings = append(c.bindings, b)
}

// Hypervisor is the host-side VM monitor for one CVM.
type Hypervisor struct {
	m   *snp.Machine
	psp AttestationSigner

	measurement [32]byte
	launched    bool

	// vcpus is indexed by VCPU id, one entry per machine VCPU, started or
	// not; an id outside it names no VCPU and every entry point refuses it.
	vcpus []vcpu

	// ghcbPolicy restricts, per GHCB page, which tags may be switched to
	// through it. No entry = unrestricted (kernel GHCBs).
	ghcbPolicy map[uint64][]DomainTag

	// exitGHCBs holds one GHCB per VMGEXIT nesting depth (a domain switch
	// runs its target, which may exit again before the switch returns).
	// An exit decodes into its depth's GHCB instead of zero-filling a
	// fresh 2 KiB one; exitDepth is the number of exits in progress.
	exitGHCBs []*snp.GHCB
	exitDepth int

	interruptMode   InterruptMode
	interruptTarget DomainTag
	hasIntrTarget   bool
	// intrModeChooser, when set, is consulted once per InjectInterrupt for
	// that one delivery's mode, overriding interruptMode. The hostile host
	// is not obliged to be consistently hostile: the model checker uses
	// this to enumerate per-delivery delivery choices.
	intrModeChooser func(vcpuID int) InterruptMode
}

// vcpuAt returns the VCPU with the given id, or nil if the machine has no
// such VCPU.
func (h *Hypervisor) vcpuAt(id int) *vcpu {
	if id < 0 || id >= len(h.vcpus) {
		return nil
	}
	return &h.vcpus[id]
}

// running returns the started VCPU with the given id, or nil.
func (h *Hypervisor) running(id int) *vcpu {
	if c := h.vcpuAt(id); c != nil && c.started {
		return c
	}
	return nil
}

// SetInterruptModeChooser installs fn, consulted at every InjectInterrupt
// for the delivery mode of that single interrupt. It models a host that
// picks a fresh stance per delivery — relay this one honestly, swallow the
// next — which is exactly the adversary the model checker enumerates. A
// nil fn restores the static SetInterruptRelay mode.
func (h *Hypervisor) SetInterruptModeChooser(fn func(vcpuID int) InterruptMode) {
	h.intrModeChooser = fn
}

// New creates a hypervisor for machine m using psp for report signing.
func New(m *snp.Machine, psp AttestationSigner) *Hypervisor {
	h := &Hypervisor{
		m:          m,
		psp:        psp,
		vcpus:      make([]vcpu, m.VCPUs()),
		ghcbPolicy: make(map[uint64][]DomainTag),
	}
	for i := range h.vcpus {
		h.vcpus[i].id = i
	}
	return h
}

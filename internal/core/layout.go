package core

import (
	"fmt"

	"veil/internal/snp"
)

// DomainID tags the four Veil privilege domains in hypervisor requests.
// The values are arbitrary tokens (the hypervisor treats them opaquely);
// they are chosen to match the backing VMPL for readability.
const (
	DomMON = 0 // VMPL0 + CPL0: VeilMon
	DomSRV = 1 // VMPL1 + CPL0: protected services
	DomENC = 2 // VMPL2 + CPL3: enclaves
	DomUNT = 3 // VMPL3 + CPL0/3: the operating system and its processes
)

// The kernel region's standing grants (§6.1). VMPL1 holds every
// permission on the region, so services can grant VMPL2 and VMPL3 subsets
// of it. Kernel data is KernelDataPerms at VMPL2 (enclaves run user code
// in OS-region frames) and at VMPL3; kernel and module text is
// KernelTextPerms at VMPL3. Data is thus never VMPL3
// supervisor-executable, and text never VMPL3-writable.
const (
	KernelDataPerms = snp.PermRW | snp.PermUserExec
	KernelTextPerms = snp.PermRead | snp.PermSupervisorExec
)

// kernelDataGrants is the data triple a VMPL0 caller grants a
// kernel-region page.
var kernelDataGrants = [3]snp.Grant{
	{Target: snp.VMPL1, Perms: snp.PermAll},
	{Target: snp.VMPL2, Perms: KernelDataPerms},
	{Target: snp.VMPL3, Perms: KernelDataPerms},
}

// Layout fixes where everything lives in guest physical memory. The boot
// image (monitor + services + kernel stub) occupies the front; the monitor
// heap holds all trusted state (replica VMSAs, enclave page tables, the log
// store); shared GHCB pages are never assigned; IDCBs live at the start of
// kernel memory so the lower-privileged side of each pair can always write
// them (§5.2).
type Layout struct {
	BootVMSA             uint64 // page for the launch VCPU's VMSA
	MonImage             uint64 // start of the measured monitor image
	MonImagePages        uint64
	MonHeapLo, MonHeapHi uint64 // monitor-owned frames
	GHCBBase             uint64 // 2 shared pages per VCPU: monitor GHCB, kernel GHCB
	GHCBPages            uint64
	IDCBBase             uint64 // per-VCPU IDCB pages (2 per VCPU: Mon, Srv)
	IDCBPages            uint64
	RingBase             uint64 // per-VCPU service-ring pages (RingPagesPerVCPU each)
	RingPages            uint64
	KernelLo, KernelHi   uint64
	VCPUs                int
}

// DefaultLayout computes a layout for a machine of memBytes with the given
// VCPU count. logPages sizes VeilS-Log's reserved store (the paper
// recommends ~1 GB for a day of logs; tests use far less).
func DefaultLayout(memBytes uint64, vcpus int, logPages uint64) (Layout, error) {
	pages := memBytes / snp.PageSize
	monImagePages := uint64(16)
	// Monitor heap: replica VMSAs, enclave metadata and page-table clones,
	// plus the log store. 1/32 of memory + the log store, minimum 64 pages.
	monHeap := pages/32 + logPages
	if monHeap < 64 {
		monHeap = 64
	}
	ghcbPages := uint64(2 * vcpus)
	idcbPages := uint64(2 * vcpus)
	ringPages := uint64(RingPagesPerVCPU * vcpus)

	var l Layout
	l.VCPUs = vcpus
	l.BootVMSA = 0
	l.MonImage = 1 * snp.PageSize
	l.MonImagePages = monImagePages
	l.MonHeapLo = l.MonImage + monImagePages*snp.PageSize
	l.MonHeapHi = l.MonHeapLo + monHeap*snp.PageSize
	l.GHCBBase = l.MonHeapHi
	l.GHCBPages = ghcbPages
	l.IDCBBase = l.GHCBBase + ghcbPages*snp.PageSize
	l.IDCBPages = idcbPages
	l.RingBase = l.IDCBBase + idcbPages*snp.PageSize
	l.RingPages = ringPages
	l.KernelLo = l.IDCBBase // IDCBs and rings are the first kernel-region pages
	l.KernelHi = memBytes
	kernelDataLo := l.RingBase + ringPages*snp.PageSize
	if kernelDataLo >= memBytes {
		return Layout{}, fmt.Errorf("core: machine too small: %d bytes for layout needing %d",
			memBytes, kernelDataLo)
	}
	return l, nil
}

// MonGHCB returns the monitor's shared GHCB page for a VCPU. Monitor GHCBs
// occupy the first VCPUs pages of the GHCB region; kernel GHCBs follow as a
// consecutive block (so the kernel can address its own with a flat stride).
func (l Layout) MonGHCB(vcpu int) uint64 {
	return l.GHCBBase + uint64(vcpu)*snp.PageSize
}

// KernelGHCB returns the kernel's shared GHCB page for a VCPU.
func (l Layout) KernelGHCB(vcpu int) uint64 {
	return l.GHCBBase + uint64(l.VCPUs+vcpu)*snp.PageSize
}

// MonIDCB returns the OS↔VeilMon IDCB page for a VCPU.
func (l Layout) MonIDCB(vcpu int) uint64 {
	return l.IDCBBase + uint64(2*vcpu)*snp.PageSize
}

// SrvIDCB returns the OS↔services IDCB page for a VCPU.
func (l Layout) SrvIDCB(vcpu int) uint64 {
	return l.IDCBBase + uint64(2*vcpu+1)*snp.PageSize
}

// KernelMemLo returns the first kernel page usable for general allocation
// (after the IDCB and ring pages).
func (l Layout) KernelMemLo() uint64 {
	return l.RingBase + l.RingPages*snp.PageSize
}

// RingSub returns a VCPU's submission-ring page: the free-running tail and
// the descriptor slots the OS writes.
func (l Layout) RingSub(vcpu int) uint64 {
	return l.RingBase + uint64(vcpu)*RingPagesPerVCPU*snp.PageSize
}

// RingComp returns a VCPU's completion-ring page: the free-running head and
// the completion slots only VeilMon may write (the OS polls read-only).
func (l Layout) RingComp(vcpu int) uint64 {
	return l.RingSub(vcpu) + snp.PageSize
}

// RingPayload returns the payload page backing one descriptor slot of a
// VCPU's ring: request bytes in the lower half, response bytes in the upper.
func (l Layout) RingPayload(vcpu, slot int) uint64 {
	return l.RingComp(vcpu) + uint64(1+slot)*snp.PageSize
}

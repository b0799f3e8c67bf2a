// Package kernel models the commodity CVM operating system of the Veil
// paper: a monolithic kernel with processes, an in-memory filesystem,
// loopback sockets, a Linux-kaudit-style auditing framework and loadable
// modules.
//
// Under Veil the kernel executes in Dom-UNT (VMPL3), and the few
// functionalities that are architecturally restricted there — PVALIDATE
// page-state changes and VCPU boot — are delegated through the Hooks
// interface to VeilMon (§5.3). The same kernel code also runs "native"
// (VMPL0, no hooks), which is the baseline every benchmark compares
// against. None of the Veil hooks touch core kernel functionality, exactly
// as the paper's ~560-line Linux patch does not.
package kernel

import (
	"fmt"

	"veil/internal/hv"
	"veil/internal/mm"
	"veil/internal/snp"
)

// Hooks is the kernel→Veil delegation interface (§5.3, §6). A nil Hooks
// means native execution: the kernel performs these itself at VMPL0.
type Hooks interface {
	// PValidate performs a delegated page-state change. VeilMon checks the
	// page is not a trusted region before executing the instruction.
	PValidate(phys uint64, validate bool) error
	// BootAP creates and starts a new Dom-UNT VCPU instance for the given
	// VCPU ID (initial boot or hotplug). VeilMon creates the VMSA, holding
	// the platform's Dom-UNT context for that VCPU (§5.2).
	BootAP(vcpuID int) error
	// LoadModule verifies, loads, relocates and write-protects a kernel
	// module whose image the kernel has staged in memory; it returns a
	// module handle ID (VeilS-Kci, §6.1). The destination frames were
	// allocated by the kernel (memory allocation stays with the OS).
	LoadModule(image []byte, destFrames []uint64) (int, error)
	// FreeModule unloads a module previously loaded through LoadModule,
	// lifting its text protection.
	FreeModule(handle int) error
	// AuditEmit stores one finalized audit record *before* the audited
	// event executes (execute-ahead protection, §6.3). rec is the kernel's
	// reused render buffer and is valid only during the call: an
	// implementation must copy whatever it keeps.
	AuditEmit(rec []byte) error
}

// Config describes the kernel's slice of the machine.
type Config struct {
	VMPL snp.VMPL // VMPL3 under Veil, VMPL0 native
	// MemLo/MemHi bound the kernel-managed physical range (page aligned).
	MemLo, MemHi uint64
	// GHCBBase is the first of VCPUs consecutive shared pages used as
	// per-VCPU kernel GHCBs.
	GHCBBase uint64
	// VCPUs is the number of VCPUs the kernel brings up.
	VCPUs int
	// PreValidated is set under Veil: VeilMon's boot sweep has already
	// accepted and protected every page, so the kernel skips acceptance.
	PreValidated bool
	// Hooks is the Veil delegation interface (nil ⇒ native).
	Hooks Hooks
}

// Kernel is the guest operating system instance.
type Kernel struct {
	m   *snp.Machine
	hv  *hv.Hypervisor
	cfg Config

	alloc    *mm.PhysAllocator
	vfs      *VFS
	audit    *Audit
	mods     *ModuleManager
	netstack *netStack
	devices  map[string]IoctlHandler
	// freeFDs holds released FDs, cleared, for the next open file to
	// reuse (file.go). Its capacity is the bound, set at New, so
	// releasing an FD never grows it.
	freeFDs []*FD

	procs   map[int]*Process
	nextPID int

	// placement maps runnable processes to VCPUs (place.go); placeLoad is
	// the per-VCPU count the least-loaded choice reads. Lazily allocated.
	placement map[int]int
	placeLoad []int

	booted   bool
	apOnline int

	// sysStack tracks in-flight syscalls for causal tracing: enter pushes
	// a frame, the per-handler `defer k.sysret()` pops it and records the
	// syscall span. Syscalls nest (ioctl handlers call back into the
	// kernel), hence a stack rather than a single slot.
	sysStack []sysFrame

	// spliceBuf is Splice's reusable pipe/socket staging buffer. Every
	// sink (pipe queue, socket queue, inode) copies the bytes before the
	// call returns, so the buffer never escapes a single splice.
	spliceBuf []byte
}

// New creates a kernel over the machine/hypervisor pair. Boot must be
// called (from the VCPU context the kernel runs on) before use.
func New(m *snp.Machine, hyp *hv.Hypervisor, cfg Config) (*Kernel, error) {
	if cfg.VCPUs <= 0 {
		cfg.VCPUs = 1
	}
	alloc, err := mm.NewPhysAllocator(cfg.MemLo, cfg.MemHi)
	if err != nil {
		return nil, err
	}
	k := &Kernel{
		m:       m,
		hv:      hyp,
		cfg:     cfg,
		alloc:   alloc,
		vfs:     NewVFS(),
		procs:   make(map[int]*Process),
		nextPID: 1,
		freeFDs: make([]*FD, 0, maxFreeFDs),
	}
	k.audit = NewAudit(k)
	k.mods = NewModuleManager(k)
	return k, nil
}

// VFS returns the filesystem (tests and workload setup use it directly).
func (k *Kernel) VFS() *VFS { return k.vfs }

// Audit returns the auditing subsystem.
func (k *Kernel) Audit() *Audit { return k.audit }

// Modules returns the module manager.
func (k *Kernel) Modules() *ModuleManager { return k.mods }

// Allocator exposes the kernel's physical allocator (the enclave module and
// tests need frames).
func (k *Kernel) Allocator() *mm.PhysAllocator { return k.alloc }

// GHCBPhys returns the kernel GHCB page for a VCPU.
func (k *Kernel) GHCBPhys(vcpuID int) uint64 {
	return k.cfg.GHCBBase + uint64(vcpuID)*snp.PageSize
}

// ReadPhys / WritePhys are the kernel's direct-map accessors: supervisor
// software accesses at the kernel's VMPL, RMP-checked like everything else.
// Both run over the machine's zero-copy span API, chunked per page.
func (k *Kernel) ReadPhys(phys uint64, buf []byte) error {
	return k.physChunks(phys, len(buf), snp.AccessRead, func(off int, span []byte) {
		copy(buf[off:], span)
	})
}

// WritePhys writes through the kernel direct map.
func (k *Kernel) WritePhys(phys uint64, buf []byte) error {
	return k.physChunks(phys, len(buf), snp.AccessWrite, func(off int, span []byte) {
		copy(span, buf[off:])
	})
}

// physChunks walks [phys, phys+n) one in-page span at a time.
func (k *Kernel) physChunks(phys uint64, n int, acc snp.Access, fn func(off int, span []byte)) error {
	for off := 0; off < n; {
		c := int(snp.PageSize - snp.PageOffset(phys+uint64(off)))
		if c > n-off {
			c = n - off
		}
		span, err := k.m.Span(k.cfg.VMPL, snp.CPL0, phys+uint64(off), c, acc)
		if err != nil {
			return err
		}
		fn(off, span)
		off += c
	}
	return nil
}

// guestCall issues a kernel hypercall through the kernel's own GHCB,
// re-pointing the (possibly user-GHCB-holding) MSR first and restoring it.
func (k *Kernel) guestCall(vcpu int, g *snp.GHCB) error {
	old, had := k.m.ReadGHCBMSR(vcpu)
	ghcb := k.GHCBPhys(vcpu)
	if err := k.m.WriteGHCBMSR(vcpu, snp.CPL0, ghcb); err != nil {
		return err
	}
	err := k.hv.GuestCall(vcpu, k.cfg.VMPL, snp.CPL0, ghcb, g)
	if had && old != ghcb {
		if merr := k.m.WriteGHCBMSR(vcpu, snp.CPL0, old); err == nil {
			err = merr
		}
	}
	return err
}

// Boot initializes the kernel on the boot VCPU: it prepares its GHCB,
// requests assignment of its physical range from the host (one batched
// page-state hypercall) and brings up the remaining VCPUs — natively by
// creating VMSAs itself (it is VMPL0), under Veil by delegating to VeilMon
// because RMPADJUST(VMSA) is architecturally out of reach at VMPL3 (§5.3).
func (k *Kernel) Boot() error {
	if k.booted {
		return fmt.Errorf("kernel: already booted")
	}
	// Kernel GHCB for the boot VCPU.
	if err := k.m.WriteGHCBMSR(0, snp.CPL0, k.GHCBPhys(0)); err != nil {
		return err
	}
	if !k.cfg.PreValidated {
		// Ask the host to assign our whole range; pages are accepted
		// (PVALIDATEd) lazily on first allocation.
		pages := uint64(k.alloc.TotalPages())
		g := &snp.GHCB{ExitCode: hv.ExitPageState, ExitInfo1: k.cfg.MemLo, ExitInfo2: pages<<1 | 1}
		if err := k.guestCall(0, g); err != nil {
			return fmt.Errorf("kernel: page-state request: %w", err)
		}
		if g.SwScratch != 0 {
			return fmt.Errorf("kernel: host refused %d pages", g.SwScratch)
		}
	}
	// Bring up application processors.
	for id := 1; id < k.cfg.VCPUs; id++ {
		if err := k.bootAP(id); err != nil {
			return fmt.Errorf("kernel: AP %d: %w", id, err)
		}
		// Each AP needs its own kernel GHCB MSR.
		if err := k.m.WriteGHCBMSR(id, snp.CPL0, k.GHCBPhys(id)); err != nil {
			return err
		}
	}
	k.booted = true
	return nil
}

// apIdle is the native kernel's (trivial) AP idle context.
func (k *Kernel) apIdle(r snp.Reason) error {
	if r == snp.ReasonBoot {
		k.apOnline++
	}
	return nil
}

func (k *Kernel) bootAP(id int) error {
	if k.cfg.Hooks != nil {
		return k.cfg.Hooks.BootAP(id)
	}
	// Native: the kernel is VMPL0 and does it all itself.
	frame, err := k.AllocFrame()
	if err != nil {
		return err
	}
	if err := k.m.CreateVMSA(snp.VMPL0, frame, snp.VMSA{
		VCPUID: id, VMPL: snp.VMPL0, CPL: snp.CPL0,
	}, snp.ContextFunc(k.apIdle)); err != nil {
		return err
	}
	g := &snp.GHCB{ExitCode: hv.ExitStartVCPU, ExitInfo1: frame}
	return k.guestCall(0, g)
}

// AllocFrame allocates one physical frame, accepting (validating) it first
// if needed. Acceptance is the delegated path under Veil. A frame that was
// previously converted to a shared bounce buffer is first taken back from
// the host (page-state assign) before re-validation — the unshare flow.
func (k *Kernel) AllocFrame() (uint64, error) {
	p, err := k.alloc.Alloc()
	if err != nil {
		return 0, err
	}
	e, err := k.m.RMPEntryAt(p)
	if err != nil {
		return 0, err
	}
	if !e.Assigned {
		g := &snp.GHCB{ExitCode: hv.ExitPageState, ExitInfo1: p, ExitInfo2: 1<<1 | 1}
		if err := k.guestCall(0, g); err != nil {
			return 0, err
		}
		if g.SwScratch != 0 {
			return 0, fmt.Errorf("kernel: host refused to return page %#x", p)
		}
		e.Validated = false
	}
	if !e.Validated {
		if err := k.pvalidate(p, true); err != nil {
			return 0, err
		}
		k.m.Clock().Charge(snp.CostCompute, snp.CyclesColdPageTouch)
	}
	return p, nil
}

// FreeFrame returns a frame to the kernel pool.
func (k *Kernel) FreeFrame(p uint64) error { return k.alloc.Free(p) }

// pvalidate routes a page-state change natively or through VeilMon.
func (k *Kernel) pvalidate(phys uint64, validate bool) error {
	if k.cfg.Hooks != nil {
		return k.cfg.Hooks.PValidate(phys, validate)
	}
	return k.m.PValidate(k.cfg.VMPL, phys, validate)
}

// ScheduleEnclaveGHCB is the scheduler hook of §6.2: before running an
// enclave-hosting process, the kernel points the VCPU's GHCB MSR at the
// process's user-mapped GHCB so the unprivileged process (and the enclave)
// can request domain switches without a privileged MSR write of their own.
func (k *Kernel) ScheduleEnclaveGHCB(vcpuID int, ghcbPhys uint64) error {
	return k.m.WriteGHCBMSR(vcpuID, snp.CPL0, ghcbPhys)
}

// SharePageWithHost converts a kernel-owned page into a shared bounce
// buffer: rescind validation (delegated under Veil), then ask the host to
// reclaim it. This is the runtime page-state path of §5.3.
func (k *Kernel) SharePageWithHost(phys uint64) error {
	if err := k.pvalidate(phys, false); err != nil {
		return err
	}
	g := &snp.GHCB{ExitCode: hv.ExitPageState, ExitInfo1: phys, ExitInfo2: 1 << 1} // op=reclaim
	if err := k.guestCall(0, g); err != nil {
		return err
	}
	if g.SwScratch != 0 {
		return fmt.Errorf("kernel: host refused to reclaim %#x", phys)
	}
	return nil
}

package core

import (
	"fmt"
	"io"

	"veil/internal/attest"
	"veil/internal/hv"
	"veil/internal/mm"
	"veil/internal/snp"
)

// ServiceHandler processes one IDCB request for a protected service running
// in Dom-SRV. It returns a status code and response payload.
type ServiceHandler func(vcpu int, op uint8, payload []byte) (uint32, []byte)

// CyclesReplicaInit models initializing the architectural structures of a
// fresh domain replica — stack, page tables, descriptor tables (§5.2 step
// two).
const CyclesReplicaInit = 20_000

// Config configures VeilMon.
type Config struct {
	Layout Layout
	// Rand provides key material (crypto/rand.Reader if nil).
	Rand io.Reader
	// UNTContext returns the Dom-UNT guest context for a VCPU (its replica
	// runs it). The first invocation on VCPU 0 boots the kernel.
	UNTContext func(vcpu int) snp.Context
}

// Monitor is VeilMon: the Dom-MON security monitor.
type Monitor struct {
	m   *snp.Machine
	hv  *hv.Hypervisor
	lay Layout

	heap     *mm.PhysAllocator
	regions  RegionSet
	replicas map[int]map[uint64]uint64 // vcpu → domain tag → VMSA phys
	services [256]ServiceHandler       // indexed by service ID; nil = none
	onBoot   []func() error

	untCtx func(int) snp.Context

	// drainNotify, when set, raises the completion interrupt at the end of
	// a ring drain whose submission header has the IRQ-enable flag set.
	// The CVM wires it to hv.InjectInterrupt: delivery happens while
	// Dom-SRV is still the current context, so the relay protocol decides
	// where the handler actually runs (§6.2).
	drainNotify func(vcpu int) error

	kp             *attest.KeyPair
	userCh         *attest.Channel
	secureHandlers map[uint8]SecureHandler
	rand           io.Reader

	// reqStage and ringStage are the reusable request-payload staging
	// buffers of the IDCB and ring dispatch paths (see
	// ReadIDCBRequestInto). Dispatch is single-threaded per monitor and no
	// registered handler retains its request payload, so one buffer per
	// path removes the per-request allocation. They are separate because a
	// ring drain can interleave with an IDCB dispatch on the call stack.
	reqStage  []byte
	ringStage []byte

	booted bool
}

// NewMonitor creates VeilMon over the machine/hypervisor pair. Protected
// services must be registered before the CVM is launched (they are part of
// the measured boot image).
func NewMonitor(m *snp.Machine, hyp *hv.Hypervisor, cfg Config) (*Monitor, error) {
	if cfg.UNTContext == nil {
		return nil, fmt.Errorf("core: Config.UNTContext is required")
	}
	heap, err := mm.NewPhysAllocator(cfg.Layout.MonHeapLo, cfg.Layout.MonHeapHi)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		m:        m,
		hv:       hyp,
		lay:      cfg.Layout,
		heap:     heap,
		replicas: make(map[int]map[uint64]uint64),
		untCtx:   cfg.UNTContext,
		rand:     cfg.Rand,
	}, nil
}

// Machine returns the machine (services need it for RMP operations).
func (mon *Monitor) Machine() *snp.Machine { return mon.m }

// Hypervisor returns the host interface.
func (mon *Monitor) Hypervisor() *hv.Hypervisor { return mon.hv }

// Layout returns the physical layout.
func (mon *Monitor) Layout() Layout { return mon.lay }

// RegisterService installs a Dom-SRV request handler for a service ID.
func (mon *Monitor) RegisterService(svc uint8, h ServiceHandler) {
	mon.services[svc] = h
}

// OnBoot queues an initialization function to run during monitor boot
// (services use it to set up their protected state).
func (mon *Monitor) OnBoot(fn func() error) { mon.onBoot = append(mon.onBoot, fn) }

// AllocFrame hands out a monitor-heap frame (accepted during the boot
// sweep). Monitor frames are protected: no lower domain can touch them.
func (mon *Monitor) AllocFrame() (uint64, error) { return mon.heap.Alloc() }

// FreeFrame returns a monitor-heap frame.
func (mon *Monitor) FreeFrame(p uint64) error { return mon.heap.Free(p) }

// AllocServiceFrame hands a protected frame to Dom-SRV: a monitor-heap page
// with VMPL1 read/write granted. Services keep their own state here —
// cloned enclave page tables, the log store — out of the OS's reach.
func (mon *Monitor) AllocServiceFrame() (uint64, error) {
	f, err := mon.heap.Alloc()
	if err != nil {
		return 0, err
	}
	if err := mon.m.RMPAdjust(snp.VMPL0, f, snp.VMPL1, snp.PermRW); err != nil {
		return 0, err
	}
	return f, nil
}

// FreeServiceFrame revokes the Dom-SRV grant and returns the frame.
func (mon *Monitor) FreeServiceFrame(f uint64) error {
	if err := mon.m.RMPAdjust(snp.VMPL0, f, snp.VMPL1, snp.PermNone); err != nil {
		return err
	}
	return mon.heap.Free(f)
}

// ProtectPages registers kernel-region pages in the protected-region set
// (the sanitizer's deny list): enclave frames, kernel and module text.
func (mon *Monitor) ProtectPages(pages []uint64, label string) error {
	return mon.regions.AddPages(pages, label)
}

// UnprotectLabel removes all regions with the given label.
func (mon *Monitor) UnprotectLabel(label string) { mon.regions.Remove(label) }

// Sanitize validates an untrusted pointer range (§8.1): it must lie in the
// kernel region, so it names no VMSA, monitor image or monitor-heap page
// (the service frames, the log store and cloned page tables included),
// and touch no protected region there.
func (mon *Monitor) Sanitize(ptr, n uint64) error {
	if ptr < mon.lay.KernelLo {
		return fmt.Errorf("core: untrusted pointer %#x below the kernel region", ptr)
	}
	return mon.regions.Sanitize(ptr, n)
}

// SetDrainNotifier installs (or, with nil, removes) the completion-interrupt
// hook drainRing fires after publishing a batch whose submitter enabled ring
// IRQs. It is called while Dom-SRV is still current — exactly when a real
// device interrupt would arrive — so hostile relay modes get their shot.
func (mon *Monitor) SetDrainNotifier(fn func(vcpu int) error) { mon.drainNotify = fn }

// haltOnInterrupt models an interrupt forced into a trusted domain that
// cannot host the OS handler (the hostile RefuseRelay mode of Table 2): the
// handler's pages are unmapped above VMPL3, delivery faults, the CVM halts.
func (mon *Monitor) haltOnInterrupt(vmpl snp.VMPL) error {
	const osHandlerVirt = 0x0000_7FFF_FF00_0000
	f := &snp.Fault{
		Kind: snp.FaultNPF, VMPL: vmpl, CPL: snp.CPL0,
		Access: snp.AccessExec, Virt: osHandlerVirt,
		Why: fmt.Sprintf("interrupt vector unreachable from VMPL%d domain (refused relay)", vmpl),
	}
	return mon.m.Halt(f)
}

// BootContext returns the guest context of the launch VCPU's VMSA.
func (mon *Monitor) BootContext() snp.Context { return mon.monCtx(0) }

// monCtx is a VCPU's Dom-MON context: a boot entry boots VeilMon (only the
// launch VCPU's VMSA gets one), other entries serve one Dom-MON request.
func (mon *Monitor) monCtx(vcpu int) snp.Context {
	return snp.ContextFunc(func(r snp.Reason) error {
		switch r {
		case snp.ReasonBoot:
			return mon.boot()
		case snp.ReasonInterrupt:
			return mon.haltOnInterrupt(snp.VMPL0)
		}
		return mon.dispatchMon(vcpu)
	})
}

// srvCtx is the Dom-SRV replica context: one IDCB request per service
// switch, or a full ring drain per doorbell.
func (mon *Monitor) srvCtx(vcpu int) snp.Context {
	return snp.ContextFunc(func(r snp.Reason) error {
		switch r {
		case snp.ReasonDoorbell:
			return mon.drainRing(vcpu)
		case snp.ReasonInterrupt:
			return mon.haltOnInterrupt(snp.VMPL1)
		default:
			return mon.dispatchSrv(vcpu)
		}
	})
}

// hypercall issues a monitor hypercall through the monitor's own GHCB,
// preserving whatever GHCB MSR value the interrupted domain had.
func (mon *Monitor) hypercall(vcpu int, g *snp.GHCB) error {
	old, had := mon.m.ReadGHCBMSR(vcpu)
	if err := mon.m.WriteGHCBMSR(vcpu, snp.CPL0, mon.lay.MonGHCB(vcpu)); err != nil {
		return err
	}
	err := mon.hv.GuestCall(vcpu, snp.VMPL0, snp.CPL0, mon.lay.MonGHCB(vcpu), g)
	if had {
		if merr := mon.m.WriteGHCBMSR(vcpu, snp.CPL0, old); err == nil {
			err = merr
		}
	}
	return err
}

// boot is VeilMon's launch-time initialization (§5.1): protect every
// physical page, create the per-VCPU domain replicas, initialize protected
// services, prepare the attestation keys, and finally hand control to the
// kernel in Dom-UNT.
func (mon *Monitor) boot() error {
	if mon.booted {
		return fmt.Errorf("core: monitor already booted")
	}
	if err := mon.m.WriteGHCBMSR(0, snp.CPL0, mon.lay.MonGHCB(0)); err != nil {
		return err
	}
	if err := mon.sweepAndProtect(); err != nil {
		return fmt.Errorf("core: boot sweep: %w", err)
	}
	if err := mon.setupRings(); err != nil {
		return fmt.Errorf("core: ring setup: %w", err)
	}

	// The boot VMSA already runs Dom-MON on VCPU 0.
	mon.replicas[0] = map[uint64]uint64{DomMON: mon.lay.BootVMSA}

	// Replicate every VCPU into the standing domains (§5.2).
	for vcpu := 0; vcpu < mon.lay.VCPUs; vcpu++ {
		if vcpu > 0 {
			if _, err := mon.createReplica(vcpu, DomMON, snp.VMSA{
				VCPUID: vcpu, VMPL: snp.VMPL0, CPL: snp.CPL0,
			}, mon.monCtx(vcpu)); err != nil {
				return err
			}
		}
		if _, err := mon.createReplica(vcpu, DomSRV, snp.VMSA{
			VCPUID: vcpu, VMPL: snp.VMPL1, CPL: snp.CPL0,
		}, mon.srvCtx(vcpu)); err != nil {
			return err
		}
	}
	// Dom-UNT replica for the boot VCPU (APs get theirs via BootAP).
	if _, err := mon.createReplica(0, DomUNT, snp.VMSA{
		VCPUID: 0, VMPL: snp.VMPL3, CPL: snp.CPL0,
	}, mon.untCtx(0)); err != nil {
		return err
	}

	// Service initialization (log store, KCI symbol snapshot, ...).
	for _, fn := range mon.onBoot {
		if err := fn(); err != nil {
			return fmt.Errorf("core: service init: %w", err)
		}
	}

	// Attestation: ephemeral channel key, offered in future reports.
	kp, err := attest.NewKeyPair(mon.rand)
	if err != nil {
		return err
	}
	mon.kp = kp
	mon.booted = true

	// Hand over to the operating system: first switch into Dom-UNT boots
	// the kernel (§5.1: "VeilMon creates new domains for protected
	// services, the kernel, and enclaves"). No MSR restore afterwards:
	// the steady state is the OS running with its own GHCB.
	g := &snp.GHCB{ExitCode: hv.ExitDomainSwitch, ExitInfo1: DomUNT}
	if err := mon.m.WriteGHCBMSR(0, snp.CPL0, mon.lay.MonGHCB(0)); err != nil {
		return err
	}
	return mon.hv.GuestCall(0, snp.VMPL0, snp.CPL0, mon.lay.MonGHCB(0), g)
}

// sweepAndProtect accepts every page of the machine and installs Veil's
// boot-time RMP policy. This is the dominant component of Veil's boot cost
// (§9.1): one PVALIDATE with a cold first touch and three RMPADJUSTs (one
// permission vector per lower VMPL) per page.
func (mon *Monitor) sweepAndProtect() error {
	m := mon.m
	total := m.NumPages()
	ghcbLo := mon.lay.GHCBBase >> snp.PageShift
	ghcbHi := ghcbLo + mon.lay.GHCBPages

	// Batch host page-state requests over runs of unassigned pages.
	var runStart uint64
	var inRun bool
	flush := func(endPage uint64) error {
		if !inRun {
			return nil
		}
		inRun = false
		g := &snp.GHCB{
			ExitCode:  hv.ExitPageState,
			ExitInfo1: runStart * snp.PageSize,
			ExitInfo2: (endPage-runStart)<<1 | 1,
		}
		if err := mon.hypercall(0, g); err != nil {
			return err
		}
		if g.SwScratch != 0 {
			return fmt.Errorf("core: host refused %d pages in sweep", g.SwScratch)
		}
		return nil
	}
	// The same scan plans the accept runs: one per stretch of pages that
	// take the same instructions. A page the host assigns is then
	// assigned and unvalidated, which is what it plans as now.
	//
	// The monitor image and heap get no access below VMPL0, and the IDCB
	// and ring pages the kernel data grants. The rest of the kernel region
	// is the OS's until VeilS-Kci narrows it to text or data at the end of
	// boot.
	monGrants := [3]snp.Grant{{Target: snp.VMPL1}, {Target: snp.VMPL2}, {Target: snp.VMPL3}}
	osGrants := [3]snp.Grant{kernelDataGrants[0], kernelDataGrants[1], {Target: snp.VMPL3, Perms: snp.PermAll}}
	type sweepOp struct {
		skip, validated bool
		grants          *[3]snp.Grant
	}
	type stretch struct {
		lo, hi uint64 // pages [lo, hi)
		op     sweepOp
	}
	var plan []stretch
	for pg := uint64(0); pg < total; pg++ {
		op := sweepOp{skip: true} // GHCBs stay shared
		if pg < ghcbLo || pg >= ghcbHi {
			e, err := m.RMPEntryAt(pg * snp.PageSize)
			if err != nil {
				return err
			}
			if !e.Assigned {
				if !inRun {
					runStart, inRun = pg, true
				}
			} else if err := flush(pg); err != nil {
				return err
			}
			// The boot VMSA page is already protected by hardware.
			op = sweepOp{skip: e.VMSA, validated: e.Validated, grants: &monGrants}
			switch addr := pg * snp.PageSize; {
			case addr >= mon.lay.KernelMemLo():
				op.grants = &osGrants
			case addr >= mon.lay.KernelLo:
				op.grants = &kernelDataGrants
			}
		} else if err := flush(pg); err != nil {
			return err
		}
		if n := len(plan); n > 0 && plan[n-1].op == op {
			plan[n-1].hi++
		} else {
			plan = append(plan, stretch{pg, pg + 1, op})
		}
	}
	if err := flush(total); err != nil {
		return err
	}

	// Accept and protect each page.
	for _, st := range plan {
		if st.op.skip {
			continue
		}
		run := snp.RMPRun{Caller: snp.VMPL0, Lo: st.lo * snp.PageSize, Hi: st.hi * snp.PageSize, Grants: st.op.grants[:]}
		if !st.op.validated {
			run.Validate, run.Touch = snp.PVAccept, snp.CyclesColdPageTouch
		}
		if err := m.RunRMP(&run); err != nil {
			return err
		}
	}
	return nil
}

// createReplica implements the four replica-creation steps of §5.2:
// allocate a VMSA (holding ctx), initialize the domain's architectural
// structures, set the entry state, and register it with the hypervisor.
func (mon *Monitor) createReplica(vcpu int, tag uint64, vmsa snp.VMSA, ctx snp.Context) (uint64, error) {
	frame, err := mon.heap.Alloc()
	if err != nil {
		return 0, err
	}
	vmsa.VCPUID = vcpu
	if err := mon.m.CreateVMSA(snp.VMPL0, frame, vmsa, ctx); err != nil {
		return 0, err
	}
	mon.m.Clock().Charge(snp.CostCompute, CyclesReplicaInit)
	g := &snp.GHCB{ExitCode: hv.ExitRegisterVMSA, ExitInfo1: frame, ExitInfo2: tag}
	if err := mon.hypercall(0, g); err != nil { // the monitor registers from VCPU 0
		return 0, err
	}
	if mon.replicas[vcpu] == nil {
		mon.replicas[vcpu] = make(map[uint64]uint64)
	}
	mon.replicas[vcpu][tag] = frame
	return frame, nil
}

// ReplicaVMSA returns the VMSA page of a (vcpu, domain) replica.
func (mon *Monitor) ReplicaVMSA(vcpu int, tag uint64) (uint64, bool) {
	p, ok := mon.replicas[vcpu][tag]
	return p, ok
}

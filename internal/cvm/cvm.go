// Package cvm assembles a complete confidential VM: the SNP machine, the
// untrusted hypervisor, and either a Veil guest (VeilMon + protected
// services + the kernel in Dom-UNT) or a native guest (the same kernel at
// VMPL0, no monitor) — the baseline configuration of every benchmark in §9.
package cvm

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"io"

	"veil/internal/attest"
	"veil/internal/core"
	"veil/internal/hv"
	"veil/internal/kernel"
	"veil/internal/obs"
	"veil/internal/services/chn"
	"veil/internal/services/enc"
	"veil/internal/services/kci"
	"veil/internal/services/vlog"
	"veil/internal/snp"
)

// CyclesInterruptHandler is the OS-side cost of servicing one relayed
// interrupt (exclusive of the exit/enter costs charged by the hypervisor).
const CyclesInterruptHandler = 600

// KernelTextPages is the size of the synthetic kernel text region that
// VeilS-Kci write-protects at activation.
const KernelTextPages = 16

// Options selects the CVM configuration.
type Options struct {
	// MemBytes and VCPUs size the machine (defaults: 64 MiB, 1 VCPU for
	// tests; the paper testbed is 2 GiB / 4 VCPUs).
	MemBytes uint64
	VCPUs    int
	// Veil installs VeilMon and the three protected services; false boots
	// the same kernel natively at VMPL0.
	Veil bool
	// LogPages sizes VeilS-Log's reserved store.
	LogPages uint64
	// AuditRules, when non-nil, enables kaudit with this ruleset at boot.
	AuditRules []kernel.SysNo
	// Rand supplies key material (crypto/rand.Reader if nil).
	Rand io.Reader
	// Recorder, when non-nil, is attached to the machine before launch so
	// the trace captures boot (RMPADJUST sweep, replica creation) as well
	// as the run. Nil keeps the zero-overhead no-op path.
	Recorder *obs.Recorder
	// NoFlight disables the always-on flight recorder (the bounded event
	// ring post-mortem dumps are built from). It exists for the
	// observability benchmark's true-zero baseline; leave it false
	// everywhere else.
	NoFlight bool
	// FlightCapacity overrides the flight ring size
	// (obs.DefaultFlightCapacity if zero).
	FlightCapacity int
	// PSP, when non-nil, supplies a pre-built platform security processor
	// instead of minting one from Rand. A fleet boots every machine
	// against one shared PSP identity — the analogue of chips signed by
	// the same vendor chain — so each member can verify its peers'
	// reports.
	PSP *attest.PSP
	// Fleet, when non-nil, marks this CVM as a fleet member: VeilS-Channel
	// is installed with this identity (part of the measured image, like
	// every protected service).
	Fleet *FleetMember
}

// FleetMember is a CVM's fleet identity.
type FleetMember struct {
	// ID is the machine's fleet/fabric endpoint id.
	ID int
}

// CVM is a booted machine with all its software layers.
type CVM struct {
	M   *snp.Machine
	HV  *hv.Hypervisor
	PSP *attest.PSP
	K   *kernel.Kernel

	// Veil-mode components (nil when native).
	Mon *core.Monitor
	KCI *kci.Service
	ENC *enc.Service
	LOG *vlog.Service
	// CHN is the VeilS-Channel instance (nil unless Options.Fleet was set).
	CHN *chn.Service
	// Stub is VCPU 0's kernel stub; Stubs holds one per VCPU so SMP
	// callers can drive every ring (Stubs[0] == Stub).
	Stub  *core.OSStub
	Stubs []*core.OSStub
	Lay   core.Layout

	// ModulePriv is the module vendor's signing key (kept off-platform in
	// reality; exposed here so tests and examples can build signed
	// modules).
	ModulePriv ed25519.PrivateKey

	// TextLo/TextHi bound the synthetic kernel text VeilS-Kci protects.
	TextLo, TextHi uint64

	bootRegions []attest.Region
	// ocallByVCPU tracks the active OCALL server per VCPU, indexed by
	// VCPU id (the SDK swaps it around each enclave entry, so concurrent
	// enclaves never steal each other's redirected syscalls).
	ocallByVCPU []func(vcpu int) error

	// intrNotify, when set, runs inside the Dom-UNT interrupt handler
	// after the handler cost is charged — the SMP scheduler hangs its
	// Wake here so relayed completion interrupts unblock WaitIntr waiters.
	intrNotify func(vcpu int)

	// netRx is the OS-visible receive queue of fleet fabric frames: the
	// fleet stepper pushes arrivals here (the NIC's DMA ring) and raises a
	// completion interrupt; the OS drains it and relays each frame to
	// VeilS-Channel. Frames are ciphertext — queue contents are exactly
	// what a hostile host could already see on the wire. netRxDrained is
	// the batch the last DrainNetFrames returned; the next drain clears it
	// and swaps it in as the queue, so the two arrays alternate.
	netRx        [][]byte
	netRxDrained [][]byte
}

// Boot builds and boots a CVM.
func Boot(opts Options) (*CVM, error) {
	if opts.MemBytes == 0 {
		opts.MemBytes = 64 << 20
	}
	if opts.VCPUs <= 0 {
		opts.VCPUs = 1
	}
	if opts.LogPages == 0 {
		opts.LogPages = 64
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.Reader
	}
	if opts.Veil {
		return bootVeil(opts, rng)
	}
	return bootNative(opts, rng)
}

func moduleKey(rng io.Reader) (ed25519.PrivateKey, ed25519.PublicKey, error) {
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, nil, err
	}
	return priv, pub, nil
}

// monitorImage builds the measured boot-image bytes: a header plus the
// module-signing public key (the anchors VeilS-Kci trusts come from the
// measured image, not from the runtime kernel).
func monitorImage(pub ed25519.PublicKey) []byte {
	img := []byte("VEIL boot image v1\x00mod-signing-key:")
	return append(img, pub...)
}

// newCVM builds what both boots share: the machine with its flight ring
// and recorder, the PSP (opts.PSP, or one minted from rng), the hypervisor
// and the module-signing key pair, whose public half it also returns.
func newCVM(opts Options, rng io.Reader) (*CVM, ed25519.PublicKey, error) {
	m := snp.NewMachine(snp.Config{MemBytes: opts.MemBytes, VCPUs: opts.VCPUs})
	attachFlight(m, opts)
	if opts.Recorder != nil {
		m.SetRecorder(opts.Recorder)
		opts.Recorder.SetServiceNames(core.ServiceNames())
	}
	psp := opts.PSP
	if psp == nil {
		var err error
		if psp, err = attest.NewPSP(rng); err != nil {
			return nil, nil, err
		}
	}
	priv, pub, err := moduleKey(rng)
	if err != nil {
		return nil, nil, err
	}
	return &CVM{M: m, HV: hv.New(m, psp), PSP: psp, ModulePriv: priv, ocallByVCPU: make([]func(int) error, m.VCPUs())}, pub, nil
}

func bootVeil(opts Options, rng io.Reader) (*CVM, error) {
	c, pub, err := newCVM(opts, rng)
	if err != nil {
		return nil, err
	}
	m, hyp := c.M, c.HV
	lay, err := core.DefaultLayout(opts.MemBytes, opts.VCPUs, opts.LogPages)
	if err != nil {
		return nil, err
	}
	c.Lay = lay
	c.TextLo = lay.KernelMemLo()
	c.TextHi = c.TextLo + KernelTextPages*snp.PageSize

	mon, err := core.NewMonitor(m, hyp, core.Config{
		Layout:     lay,
		Rand:       rng,
		UNTContext: c.untContext,
	})
	if err != nil {
		return nil, err
	}
	c.Mon = mon

	// The kernel object exists before launch (its code is part of the
	// boot image); it runs when the monitor switches into Dom-UNT. One
	// stub per VCPU: each owns its own ring and GHCB, and all share the
	// machine's VeilS-Channel session view.
	c.Stubs = make([]*core.OSStub, opts.VCPUs)
	for v := range c.Stubs {
		c.Stubs[v] = core.NewOSStub(mon, v)
		c.Stubs[v].ShareChnView(c.Stubs[0])
	}
	stub := c.Stubs[0]
	c.Stub = stub
	k, err := kernel.New(m, hyp, kernel.Config{
		VMPL:         snp.VMPL3,
		MemLo:        c.TextHi, // text pages are not general-purpose frames
		MemHi:        lay.KernelHi,
		GHCBBase:     lay.KernelGHCB(0),
		VCPUs:        opts.VCPUs,
		PreValidated: true,
		Hooks:        stub,
	})
	if err != nil {
		return nil, err
	}
	c.K = k

	// Protected services (part of the measured image). Their boot hooks
	// run in this order, so kernel W⊕X activates last, once the sweep has
	// validated the pages and VeilS-Log has claimed its store.
	c.LOG = vlog.New(mon, opts.LogPages)
	c.KCI = kci.New(mon, pub, k.Modules().SymbolTable(), c.TextLo, c.TextHi)
	c.ENC = enc.New(mon, rng)
	if opts.Fleet != nil {
		c.CHN = chn.New(mon, chn.Config{
			MachineID: opts.Fleet.ID,
			PSPPub:    c.PSP.PublicKey(),
			Rand:      rng,
		})
	}
	k.Modules().SetSigningKey(pub)

	c.bootRegions = []attest.Region{{Phys: lay.MonImage, Data: monitorImage(pub)}}
	boot := snp.VMSA{VCPUID: 0, VMPL: snp.VMPL0, CPL: snp.CPL0}
	if err := hyp.Launch(c.bootRegions, lay.BootVMSA, boot, core.DomMON, mon.BootContext()); err != nil {
		return nil, fmt.Errorf("cvm: veil launch: %w", err)
	}
	// Post-mortems diff the RMP against the post-launch state, not the
	// whole boot sweep.
	m.SnapshotRMPBaseline()

	// Steady state: every VCPU rests in Dom-UNT; interrupts during
	// trusted-domain execution are relayed there (§6.2).
	for v := 0; v < opts.VCPUs; v++ {
		unt, ok := mon.ReplicaVMSA(v, core.DomUNT)
		if !ok {
			return nil, fmt.Errorf("cvm: VCPU %d has no Dom-UNT replica", v)
		}
		if err := hyp.Resume(v, unt); err != nil {
			return nil, err
		}
	}
	hyp.SetInterruptRelay(hv.RelayToUntrusted, core.DomUNT)
	// Ring drains whose submitter enabled IRQs raise their completion
	// interrupt through the relay protocol — same path, same hostile modes.
	mon.SetDrainNotifier(func(v int) error { return hyp.InjectInterrupt(v) })

	if opts.AuditRules != nil {
		k.Audit().SetRules(opts.AuditRules)
	}
	return c, nil
}

// attachFlight installs the always-on flight ring unless the caller
// explicitly opted out (benchmark baseline).
func attachFlight(m *snp.Machine, opts Options) {
	if opts.NoFlight {
		return
	}
	cap := opts.FlightCapacity
	if cap <= 0 {
		cap = obs.DefaultFlightCapacity
	}
	m.SetFlight(obs.NewFlight(cap))
}

func bootNative(opts Options, rng io.Reader) (*CVM, error) {
	c, pub, err := newCVM(opts, rng)
	if err != nil {
		return nil, err
	}

	const bootVMSA = 0
	ghcbBase := uint64(1 * snp.PageSize)
	imagePhys := ghcbBase + uint64(opts.VCPUs)*snp.PageSize
	memLo := imagePhys + 4*snp.PageSize

	k, err := kernel.New(c.M, c.HV, kernel.Config{
		VMPL:     snp.VMPL0,
		MemLo:    memLo,
		MemHi:    opts.MemBytes,
		GHCBBase: ghcbBase,
		VCPUs:    opts.VCPUs,
	})
	if err != nil {
		return nil, err
	}
	c.K = k
	k.Modules().SetSigningKey(pub)

	c.bootRegions = []attest.Region{{Phys: imagePhys, Data: monitorImage(pub)}}
	boot := snp.VMSA{VCPUID: 0, VMPL: snp.VMPL0, CPL: snp.CPL0}
	if err := c.HV.Launch(c.bootRegions, bootVMSA, boot, core.DomUNT, c.untContext(0)); err != nil {
		return nil, fmt.Errorf("cvm: native launch: %w", err)
	}
	c.M.SnapshotRMPBaseline()
	if opts.AuditRules != nil {
		k.Audit().SetRules(opts.AuditRules)
	}
	return c, nil
}

// ExpectedMeasurement computes the launch digest a verifier would expect.
func (c *CVM) ExpectedMeasurement() [32]byte {
	return attest.MeasureRegions(c.bootRegions)
}

// untContext is one VCPU's Dom-UNT guest context, Veil and native alike:
// the kernel boots on VCPU 0's first entry that is not an interrupt,
// interrupts run the OS handler, an AP's boot entry does nothing, and any
// other entry goes to the VCPU's OCALL server.
func (c *CVM) untContext(vcpu int) snp.Context {
	booted := vcpu != 0
	return snp.ContextFunc(func(r snp.Reason) error {
		switch {
		case r == snp.ReasonInterrupt:
			c.M.Clock().Charge(snp.CostCompute, CyclesInterruptHandler)
			c.notifyInterrupt(vcpu)
			return nil
		case !booted:
			booted = true
			return c.K.Boot()
		case r == snp.ReasonBoot:
			return nil
		}
		return c.dispatchOcall(vcpu)
	})
}

// dispatchOcall routes a Dom-UNT service entry to the right application.
func (c *CVM) dispatchOcall(vcpu int) error {
	if fn := c.ocallByVCPU[vcpu]; fn != nil {
		return fn(vcpu)
	}
	return nil
}

// SwapOcallServer installs the active OCALL server for one VCPU and
// returns the previous one; the SDK brackets every enclave entry with it
// so syscall redirection always reaches the entering application.
func (c *CVM) SwapOcallServer(vcpu int, fn func(vcpu int) error) func(vcpu int) error {
	prev := c.ocallByVCPU[vcpu]
	c.ocallByVCPU[vcpu] = fn
	return prev
}

// OnInterrupt installs (or, with nil, removes) a callback invoked from the
// Dom-UNT interrupt handler after a relayed interrupt is serviced on a
// VCPU. The SMP scheduler registers its Wake here.
func (c *CVM) OnInterrupt(fn func(vcpu int)) { c.intrNotify = fn }

func (c *CVM) notifyInterrupt(vcpu int) {
	if c.intrNotify != nil {
		c.intrNotify(vcpu)
	}
}

// StubFor returns the kernel stub owning the given VCPU's ring and GHCB
// (nil for out-of-range VCPUs or native CVMs).
func (c *CVM) StubFor(vcpu int) *core.OSStub {
	if vcpu < 0 || vcpu >= len(c.Stubs) {
		return nil
	}
	return c.Stubs[vcpu]
}

// PushNetFrame enqueues one received fabric frame on the OS-visible
// receive queue. The fleet stepper calls it (followed by an interrupt
// injection) from the machine's own clock domain. The queue keeps frame
// itself, not a copy, until the drain after the one that returns it:
// fabric payloads never change once sent (fabric.Send).
func (c *CVM) PushNetFrame(frame []byte) { c.netRx = append(c.netRx, frame) }

// DrainNetFrames pops every queued receive frame in arrival order. The
// OS-side workload calls it from its interrupt-driven receive path and
// relays each frame to VeilS-Channel via the stub. The returned batch is
// valid until the next drain, which reuses its array for the queue.
func (c *CVM) DrainNetFrames() [][]byte {
	out := c.netRx
	clear(c.netRxDrained)
	c.netRx, c.netRxDrained = c.netRxDrained[:0], out
	return out
}

// Veil reports whether this CVM runs the Veil framework.
func (c *CVM) Veil() bool { return c.Mon != nil }

// Package attacks implements the paper's §8 security analysis as runnable
// attack suites: every row of Table 1 (framework attacks) and Table 2
// (enclave attacks) plus the two §8.3 validation attacks. Each attack runs
// against a freshly booted CVM and reports whether the defence the paper
// describes actually held in the model — these are the same checks the
// package test suites assert, packaged for the veil-attack binary.
package attacks

import (
	"errors"
	"fmt"
	"strings"

	"veil/internal/audit"
	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/hv"
	"veil/internal/kernel"
	"veil/internal/mm"
	"veil/internal/obs"
	"veil/internal/sdk"
	"veil/internal/sdk/sanitizer"
	"veil/internal/snp"
)

// Evidence is what the observability stack captured while the attack ran:
// the flight-recorder/auditor side of the defence verdict. A defended
// on-platform attack must leave at least one machine-visible trace.
type Evidence struct {
	Faults          uint64 // ClassFault events in the flight ring
	Denied          uint64 // ClassDenied events
	Invariants      uint64 // ClassInvariant events
	Halted          bool
	PostMortem      bool
	AuditViolations uint64 // auditor tally (0 unless SetAuditing(true))
	// DeniedReasons names the distinct refusal classes among the Denied
	// events, in first-seen order ("sanitize", "intr-route", ...), so
	// evidence reads as the defence that fired rather than a bare count.
	DeniedReasons []string
}

// Any reports whether the machine saw the attack at all.
func (e Evidence) Any() bool {
	return e.Faults > 0 || e.Denied > 0 || e.Invariants > 0 || e.Halted || e.PostMortem
}

func (e Evidence) String() string {
	s := fmt.Sprintf("faults=%d denied=%d invariants=%d", e.Faults, e.Denied, e.Invariants)
	if e.Halted {
		s += " halted"
	}
	if e.PostMortem {
		s += " post-mortem"
	}
	if e.AuditViolations > 0 {
		s += fmt.Sprintf(" audit-violations=%d", e.AuditViolations)
	}
	if len(e.DeniedReasons) > 0 {
		s += " [" + strings.Join(e.DeniedReasons, ",") + "]"
	}
	return s
}

// Result is one executed attack.
type Result struct {
	Attack   string
	Defence  string
	Defended bool
	Detail   string
	// OffPlatform marks defences that live outside the machine (attestation
	// measurement comparisons): they leave no fault/denial evidence, and
	// none is required.
	OffPlatform bool
	Evidence    Evidence
}

var seedCounter int64 = 9_000

// lastBoot/lastAuditor track the most recent freshVeil CVM so execute can
// collect evidence after the attack returns. Attacks run sequentially.
var (
	lastBoot    *cvm.CVM
	lastAuditor *audit.Auditor
	auditing    bool
)

// SetAuditing attaches an invariant auditor to every subsequently booted
// attack CVM (veil-attack -audit). Evidence then includes the auditor tally.
func SetAuditing(on bool) { auditing = on }

func freshVeil() (*cvm.CVM, error) {
	seedCounter++
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: 1, Veil: true, LogPages: 8,
		Rand: cvm.SeededRand(seedCounter),
	})
	lastBoot, lastAuditor = c, nil
	if err == nil && auditing {
		lastAuditor = audit.Attach(c.M, audit.Config{})
	}
	return c, err
}

type attack struct {
	name    string
	defence string
	// offPlatform: the defence is an attestation/measurement comparison;
	// no machine-visible evidence is expected.
	offPlatform bool
	run         func() (bool, string)
}

// collectEvidence scans the last booted CVM's flight tail (the recorder's
// when one shadows the flight ring) and machine state for traces of the
// attack that just ran.
func collectEvidence() Evidence {
	var ev Evidence
	c := lastBoot
	if c == nil {
		return ev
	}
	if lastAuditor != nil {
		lastAuditor.Sweep()
		ev.AuditViolations = lastAuditor.Violations()
	}
	seen := make(map[uint64]bool)
	for _, e := range c.M.FlightTail() {
		switch e.Class {
		case obs.ClassFault:
			ev.Faults++
		case obs.ClassDenied:
			ev.Denied++
			if !seen[e.Arg1] {
				seen[e.Arg1] = true
				ev.DeniedReasons = append(ev.DeniedReasons, snp.DeniedReason(e.Arg1).String())
			}
		case obs.ClassInvariant:
			ev.Invariants++
		}
	}
	ev.Halted = c.M.Halted() != nil
	ev.PostMortem = c.M.PostMortem() != nil
	return ev
}

func execute(list []attack) []Result {
	out := make([]Result, 0, len(list))
	for _, a := range list {
		lastBoot, lastAuditor = nil, nil
		ok, detail := a.run()
		out = append(out, Result{
			Attack: a.name, Defence: a.defence, Defended: ok, Detail: detail,
			OffPlatform: a.offPlatform, Evidence: collectEvidence(),
		})
	}
	return out
}

// Framework runs the Table 1 attacks.
func Framework() []Result {
	return execute([]attack{
		{
			name:        "Load malicious code at Dom-MON/Dom-SRV (boot)",
			defence:     "Remote attestation",
			offPlatform: true,
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				// The attacker booted a different image; the user expects
				// the measurement of the image they built.
				var wrong [32]byte
				wrong[0] = 0xEE
				user, err := core.NewRemoteUser(c.PSP.PublicKey(), wrong, cvm.SeededRand(7))
				if err != nil {
					return false, err.Error()
				}
				err = user.Connect(c.Stub)
				return err != nil, fmt.Sprintf("connect: %v", err)
			},
		},
		{
			name:    "Read/write at Dom-MON/Dom-SRV",
			defence: "Restricted by VMPL",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				rerr := c.K.ReadPhys(c.Lay.MonImage, make([]byte, 16))
				return snp.IsNPF(rerr) && c.M.Halted() != nil, fmt.Sprintf("%v", rerr)
			},
		},
		{
			name:    "Adjust VMPL restrictions",
			defence: "RMPADJUST prohibited",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				aerr := c.M.RMPAdjust(snp.VMPL3, c.Lay.MonImage, snp.VMPL3, snp.PermAll)
				e, _ := c.M.RMPEntryAt(c.Lay.MonImage)
				return aerr != nil && e.Perms[snp.VMPL3] == snp.PermNone, fmt.Sprintf("%v", aerr)
			},
		},
		{
			name:    "Overwrite sensitive registers (VMSA)",
			defence: "Protected in Dom-MON",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				srv, _ := c.Mon.ReplicaVMSA(0, core.DomSRV)
				werr := c.K.WritePhys(srv, []byte{0xFF})
				return snp.IsNPF(werr), fmt.Sprintf("%v", werr)
			},
		},
		{
			name:    "Overwrite protected page tables",
			defence: "Protected in Dom-MON",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				app, _, err := launchNopEnclave(c)
				if err != nil {
					return false, err.Error()
				}
				cr3 := app.Enclave().View().Mem.CR3
				werr := c.K.WritePhys(cr3, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
				return snp.IsNPF(werr) && c.M.Halted() != nil, fmt.Sprintf("%v", werr)
			},
		},
		{
			name:    "Create VCPU at Dom-MON/Dom-SRV",
			defence: "Control creation (RMPADJUST VMSA needs VMPL0)",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				f, err := c.K.AllocFrame()
				if err != nil {
					return false, err.Error()
				}
				osCode := snp.ContextFunc(func(snp.Reason) error { return nil })
				cerr := c.M.CreateVMSA(snp.VMPL3, f, snp.VMSA{VCPUID: 0, VMPL: snp.VMPL0}, osCode)
				return snp.IsGP(cerr), fmt.Sprintf("%v", cerr)
			},
		},
		{
			name:    "Overwrite trusted-side IDCB state (log store)",
			defence: "Protected in Dom-SRV",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				werr := c.K.WritePhys(c.Lay.MonHeapLo, []byte("tamper"))
				return snp.IsNPF(werr), fmt.Sprintf("%v", werr)
			},
		},
		{
			name:    "OS sends malicious request (PVALIDATE on monitor page)",
			defence: "OS request sanitized",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				perr := c.Stub.PValidate(c.Lay.MonHeapLo, false)
				return errors.Is(perr, core.ErrDenied) && c.M.Halted() == nil, fmt.Sprintf("%v", perr)
			},
		},
	})
}

func launchNopEnclave(c *cvm.CVM) (*sdk.AppRuntime, *kernel.Process, error) {
	p := c.K.Spawn("victim-app")
	prog := sdk.ProgramFunc(func(sdk.Libc, []string) int { return 0 })
	app, err := sdk.LaunchEnclave(c, p, prog, sdk.EnclaveConfig{RegionPages: 8})
	return app, p, err
}

// Enclave runs the Table 2 attacks, plus the Iago read-count and
// descriptor cases (hostile host replies the enclave must refuse rather
// than act on) and the VMRUN cases (switches into a page the hardware
// must refuse to enter).
func Enclave() []Result {
	return execute(append([]attack{
		{
			name:        "Load incorrect binary",
			defence:     "Enclave attestation",
			offPlatform: true,
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				prog := sdk.ProgramFunc(func(sdk.Libc, []string) int { return 0 })
				p1 := c.K.Spawn("a")
				good, err := sdk.LaunchEnclave(c, p1, prog, sdk.EnclaveConfig{
					RegionPages: 8, Image: []byte("the binary the user expects")})
				if err != nil {
					return false, err.Error()
				}
				p2 := c.K.Spawn("b")
				evil, err := sdk.LaunchEnclave(c, p2, prog, sdk.EnclaveConfig{
					RegionPages: 8, Image: []byte("trojaned binary")})
				if err != nil {
					return false, err.Error()
				}
				return good.Measurement != evil.Measurement,
					"measurements differ; the user only provisions the attested one"
			},
		},
		{
			name:    "Read/write enclave memory from the OS",
			defence: "Restrictions in Dom-UNT",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				_, p, err := launchNopEnclave(c)
				if err != nil {
					return false, err.Error()
				}
				frames, _ := p.RegionFrames(kernel.UserBinBase)
				rerr := c.K.ReadPhys(frames[0], make([]byte, 8))
				return snp.IsNPF(rerr) && c.M.Halted() != nil, fmt.Sprintf("%v", rerr)
			},
		},
		{
			name:    "Modify physical layout post-installation",
			defence: "PTs protected in Dom-SRV",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				_, p, err := launchNopEnclave(c)
				if err != nil {
					return false, err.Error()
				}
				merr := c.K.Mprotect(p, kernel.UserBinBase, snp.PageSize, kernel.ProtRead)
				uerr := c.K.Munmap(p, kernel.UserBinBase)
				return errors.Is(merr, kernel.ErrInval) && errors.Is(uerr, kernel.ErrInval),
					fmt.Sprintf("mprotect=%v munmap=%v", merr, uerr)
			},
		},
		{
			name:    "Violate saved enclave state (OS)",
			defence: "VMSA protected in Dom-MON",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				app, _, err := launchNopEnclave(c)
				if err != nil {
					return false, err.Error()
				}
				vmsa, ok := c.Mon.ReplicaVMSA(0, app.Tag)
				if !ok {
					return false, "no enclave VMSA"
				}
				werr := c.K.WritePhys(vmsa, []byte{0xFF})
				return snp.IsNPF(werr), fmt.Sprintf("%v", werr)
			},
		},
		{
			name:    "Incorrect GHCB mapping",
			defence: "CVM crash on VMGEXIT",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				app, _, err := launchNopEnclave(c)
				if err != nil {
					return false, err.Error()
				}
				// The OS points the MSR at a guest-private page instead of
				// the real GHCB before scheduling the enclave.
				private, _ := c.K.AllocFrame()
				if err := c.K.ScheduleEnclaveGHCB(0, private); err != nil {
					return false, err.Error()
				}
				mem, _ := app.P.Mem()
				_ = mem.WriteU64(0, 0) // no-op; entry below does the work
				_, eerr := enterRaw(c, app)
				return eerr != nil, fmt.Sprintf("entry: %v", eerr)
			},
		},
		{
			name:    "Violate saved state (hypervisor)",
			defence: "VMSA protected in CVM",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				app, _, err := launchNopEnclave(c)
				if err != nil {
					return false, err.Error()
				}
				vmsa, _ := c.Mon.ReplicaVMSA(0, app.Tag)
				terr := c.HV.AttemptVMSATamper(vmsa)
				return terr != nil, fmt.Sprintf("%v", terr)
			},
		},
		{
			name:    "Refuse interrupt relay (hypervisor)",
			defence: "CVM halts with #NPF",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				var ierr error
				prog := sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
					ierr = c.HV.InjectInterrupt(0)
					return 0
				})
				p := c.K.Spawn("victim")
				app, err := sdk.LaunchEnclave(c, p, prog, sdk.EnclaveConfig{RegionPages: 8})
				if err != nil {
					return false, err.Error()
				}
				c.HV.SetInterruptRelay(hv.RefuseRelay, core.DomUNT)
				_, _ = app.Enter()
				_ = ierr
				return c.M.Halted() != nil, fmt.Sprintf("halted: %v", c.M.Halted())
			},
		},
		{
			name:    "Access another enclave's memory from Dom-ENC",
			defence: "Disjoint physical pages + PT confinement",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				victim, _, err := launchNopEnclave(c)
				if err != nil {
					return false, err.Error()
				}
				_ = victim
				// The malicious enclave can only use its own protected
				// tables; the victim's pages are unmapped there.
				var probeErr error
				prog := sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
					er := lc.(*sdk.EnclaveRuntime)
					probeErr = er.View().Mem.Read(0x7000_0000, make([]byte, 8))
					return 0
				})
				p2 := c.K.Spawn("malicious")
				evil, err := sdk.LaunchEnclave(c, p2, prog, sdk.EnclaveConfig{RegionPages: 8})
				if err != nil {
					return false, err.Error()
				}
				if _, err := evil.Enter(); err != nil {
					return false, err.Error()
				}
				return snp.IsPF(probeErr), fmt.Sprintf("probe: %v", probeErr)
			},
		},
		{
			name:    "Execute OS code in Dom-ENC",
			defence: "Supervisor execution disallowed at VMPL2",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				xerr := c.M.GuestExecCheckPhys(snp.VMPL2, snp.CPL0, c.TextLo)
				return snp.IsNPF(xerr), fmt.Sprintf("%v", xerr)
			},
		},
		{
			name:    "Iago read count (host returns more bytes than asked)",
			defence: "Enclave killed on ret > count",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				// The hostile host answers the enclave's 16-byte read with
				// a byte count of 17, one past the buffer.
				var app *sdk.AppRuntime
				hostile := func(int) error { return app.Respond(17, 0) }
				var readErr error
				prog := sdk.ProgramFunc(func(lc sdk.Libc, _ []string) int {
					c.SwapOcallServer(0, hostile)
					_, readErr = lc.Read(0, make([]byte, 16))
					return 0
				})
				app, err = sdk.LaunchEnclave(c, c.K.Spawn("victim"), prog, sdk.EnclaveConfig{RegionPages: 8})
				if err != nil {
					return false, err.Error()
				}
				_, eerr := app.Enter()
				named := iagoKills(c)
				return errors.Is(eerr, sdk.ErrEnclaveDead) && errors.Is(readErr, sanitizer.ErrIago) &&
						len(named) == 1 && named[0] == uint64(kernel.SysRead),
					fmt.Sprintf("enter: %v; read: %v; iago kills name syscalls %v", eerr, readErr, named)
			},
		},
		{
			name:    "Iago descriptor (host returns a negative fd)",
			defence: "Enclave killed on fd outside [0, MaxFD)",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				// The hostile host answers the enclave's open with
				// descriptor -1 and errno 0: success with a number the
				// kernel never hands out.
				var app *sdk.AppRuntime
				hostile := func(int) error { return app.Respond(^uint64(0), 0) }
				var openErr error
				prog := sdk.ProgramFunc(func(lc sdk.Libc, _ []string) int {
					c.SwapOcallServer(0, hostile)
					_, openErr = lc.Open("/tmp/victim", kernel.ORdonly, 0)
					return 0
				})
				app, err = sdk.LaunchEnclave(c, c.K.Spawn("victim"), prog, sdk.EnclaveConfig{RegionPages: 8})
				if err != nil {
					return false, err.Error()
				}
				_, eerr := app.Enter()
				named := iagoKills(c)
				return errors.Is(eerr, sdk.ErrEnclaveDead) && errors.Is(openErr, sanitizer.ErrIago) &&
						len(named) == 1 && named[0] == uint64(kernel.SysOpen),
					fmt.Sprintf("enter: %v; open: %v; iago kills name syscalls %v", eerr, openErr, named)
			},
		},
	}, vmrunAttacks()...))
}

// iagoKills lists the syscalls the DeniedIago events in c's flight ring
// name, one per enclave the SDK killed on an Iago value.
func iagoKills(c *cvm.CVM) []uint64 {
	var named []uint64
	for _, e := range c.M.FlightTail() {
		if e.Class == obs.ClassDenied && e.Arg1 == uint64(snp.DeniedIago) {
			named = append(named, e.Arg2)
		}
	}
	return named
}

// enterRaw enters the enclave without the scheduler hook (the hook is the
// attack surface in the GHCB test).
func enterRaw(c *cvm.CVM, app *sdk.AppRuntime) (int, error) {
	mem, err := app.P.Mem()
	if err != nil {
		return -1, err
	}
	_ = mem
	// Reuse Enter but skip re-pointing the MSR: Enter always re-points,
	// so drive the switch directly.
	g := &snp.GHCB{ExitCode: hv.ExitDomainSwitch, ExitInfo1: app.Tag}
	if err := c.HV.GuestCall(0, snp.VMPL3, snp.CPL3, app.GHCB, g); err != nil {
		return -1, err
	}
	return 0, nil
}

// Validation runs the §8.3 experimental validation attacks.
func Validation() []Result {
	return execute(append([]attack{
		{
			name:    "Map + overwrite protected page-table entries",
			defence: "Continuous #NPF (CVM halt)",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				app, _, err := launchNopEnclave(c)
				if err != nil {
					return false, err.Error()
				}
				cr3 := app.Enclave().View().Mem.CR3
				werr := c.K.WritePhys(cr3+8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
				return snp.IsNPF(werr) && c.M.Halted() != nil, fmt.Sprintf("%v", werr)
			},
		},
		{
			name:    "Overwrite module text after VeilS-Kci activation",
			defence: "Continuous #NPF (CVM halt)",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				// Disable page-table W⊕X equivalents is implicit: the
				// kernel writes through its direct map, no PTE checks.
				werr := c.K.WritePhys(c.TextLo, []byte{0xCC})
				return snp.IsNPF(werr) && c.M.Halted() != nil, fmt.Sprintf("%v", werr)
			},
		},
	}, kciAttacks()...))
}

// TLB runs the stale-translation attacks against the simulated hardware
// TLB. SEV-SNP caches completed nested walks — the guest translation plus
// the RMP verdict — and the architecture requires RMP mutations and
// page-table edits to invalidate those caches; a verdict that survives an
// RMPADJUST would let the OS keep touching a page the monitor just revoked
// (the classic stale-TLB window). Both attacks warm a translation first so
// the model's cache demonstrably holds the entry being attacked.
func TLB() []Result {
	return execute([]attack{
		{
			name:    "Reuse warm TLB translation after RMPADJUST revoke",
			defence: "RMP-epoch TLB invalidation",
			run:     func() (bool, string) { return staleTLBRevoke(false) },
		},
		{
			name:    "Reuse warm TLB translation after PTE teardown",
			defence: "Per-table-page generation invalidation",
			run:     staleTLBPTEWrite,
		},
		{
			name:    "Suppress TLB invalidation across an RMP revoke",
			defence: "Invariant auditor (stale-verdict detection)",
			run:     auditorCatchesBrokenTLB,
		},
	})
}

// auditorCatchesBrokenTLB is the detection variant of staleTLBRevoke: the
// simulated TLB is configured to skip invalidation (the hardware bug the
// §8.3 validation worries about), so the stale cached verdict actually
// serves the revoked access — the architectural defence is gone. Defended
// here means the invariant auditor catches the inconsistency and freezes a
// post-mortem, even though the access itself succeeded.
func auditorCatchesBrokenTLB() (bool, string) {
	c, err := freshVeil()
	if err != nil {
		return false, err.Error()
	}
	a := audit.Attach(c.M, audit.Config{})
	ctx, _, frame, err := warmTranslation(c)
	if err != nil {
		return false, err.Error()
	}
	c.M.SetBrokenTLBNoInvalidate(true)
	if err := c.M.RMPAdjust(snp.VMPL0, frame, snp.VMPL3, snp.PermNone); err != nil {
		return false, err.Error()
	}
	const virt = uint64(0x7000_0000)
	if _, rerr := ctx.ReadU64(virt); rerr != nil {
		return false, fmt.Sprintf("stale verdict did not serve the access: %v", rerr)
	}
	a.Sweep()
	caught := a.ViolationsBy(audit.CheckRMPTLBEpoch) > 0 ||
		a.ViolationsBy(audit.CheckTLBVerdicts) > 0
	return caught && c.M.PostMortem() != nil,
		fmt.Sprintf("access served stale; auditor violations=%d post-mortem=%v",
			a.Violations(), c.M.PostMortem() != nil)
}

// tlbFrames adapts the kernel's physical allocator to mm.FrameSource for
// the attack's scratch address space.
type tlbFrames struct{ k *kernel.Kernel }

func (f tlbFrames) AllocFrame() (uint64, error) { return f.k.Allocator().Alloc() }
func (f tlbFrames) FreeFrame(p uint64) error    { return f.k.Allocator().Free(p) }

// warmTranslation maps one OS-owned frame and reads through it, leaving a
// live translation (and RMP verdict) in the TLB. It returns the context for
// retries, the address space and the backing frame.
func warmTranslation(c *cvm.CVM) (snp.AccessContext, *mm.AddressSpace, uint64, error) {
	as, err := mm.NewAddressSpace(c.M, snp.VMPL3, tlbFrames{c.K})
	if err != nil {
		return snp.AccessContext{}, nil, 0, err
	}
	frame, err := c.K.Allocator().Alloc()
	if err != nil {
		return snp.AccessContext{}, nil, 0, err
	}
	const virt = uint64(0x7000_0000)
	if err := as.Map(virt, frame, snp.PTEWrite|snp.PTEUser); err != nil {
		return snp.AccessContext{}, nil, 0, err
	}
	ctx := as.Context(snp.CPL0)
	if err := ctx.WriteU64(virt, 0x600D_DA7A); err != nil {
		return snp.AccessContext{}, nil, 0, err
	}
	if _, err := ctx.ReadU64(virt); err != nil {
		return snp.AccessContext{}, nil, 0, err
	}
	return ctx, as, frame, nil
}

// staleTLBRevoke is the RMPADJUST variant: after the monitor strips every
// Dom-UNT permission from the frame, a retry through the still-warm
// translation must re-run the RMP check, #NPF and halt the CVM. With
// broken=true the machine skips all TLB invalidation, which must make the
// attack succeed — that is the teeth check for this whole suite.
func staleTLBRevoke(broken bool) (bool, string) {
	c, err := freshVeil()
	if err != nil {
		return false, err.Error()
	}
	ctx, _, frame, err := warmTranslation(c)
	if err != nil {
		return false, err.Error()
	}
	if broken {
		c.M.SetBrokenTLBNoInvalidate(true)
	}
	if err := c.M.RMPAdjust(snp.VMPL0, frame, snp.VMPL3, snp.PermNone); err != nil {
		return false, err.Error()
	}
	const virt = uint64(0x7000_0000)
	_, rerr := ctx.ReadU64(virt)
	return snp.IsNPF(rerr) && c.M.Halted() != nil, fmt.Sprintf("%v", rerr)
}

// staleTLBPTEWrite is the page-table variant: the mapping is torn down by a
// software write to the live leaf table, so a retry must re-walk and take a
// #PF instead of serving the cached leaf.
func staleTLBPTEWrite() (bool, string) {
	c, err := freshVeil()
	if err != nil {
		return false, err.Error()
	}
	ctx, as, _, err := warmTranslation(c)
	if err != nil {
		return false, err.Error()
	}
	if _, err := as.Unmap(0x7000_0000); err != nil {
		return false, err.Error()
	}
	_, rerr := ctx.ReadU64(0x7000_0000)
	return snp.IsPF(rerr), fmt.Sprintf("%v", rerr)
}

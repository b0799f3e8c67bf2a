// Command veil-sim boots a Veil CVM on the simulated SEV-SNP machine and
// demonstrates the full framework end to end: remote attestation, the
// secure channel, and all three protected services (VeilS-Kci, VeilS-Enc,
// VeilS-Log).
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"veil/internal/audit"
	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/obs"
	"veil/internal/sdk"
	"veil/internal/snp"
	"veil/internal/vmod"
)

func main() {
	memMB := flag.Uint64("mem", 64, "guest memory (MiB)")
	vcpus := flag.Int("vcpus", 2, "VCPUs")
	fleet := flag.Int("fleet", 0, "boot N CVMs as a fleet and run the attested VeilS-Channel ring demo (N >= 2)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this path")
	causalOut := flag.String("causal", "", "write the causal request forest (per-request critical paths) to this path")
	metrics := flag.Bool("metrics", false, "print Prometheus-format metrics on exit")
	auditOn := flag.Bool("audit", false, "attach the security-invariant auditor for the whole run")
	pmOut := flag.String("postmortem", "", "write the flight-recorder post-mortem (if one was frozen) to this path")
	flameOut := flag.String("flame", "", "write a virtual-cycle flame graph (Brendan Gregg folded-stacks format) to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the host process to this path")
	flag.Parse()

	stopProfile := func() {}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			log.Fatalf("veil-sim: %v", err)
		}
		stopProfile = stop
		defer stop()
	}

	if *fleet > 0 {
		// Fleet mode swaps the single-CVM demo for the multi-machine ring;
		// -trace, -causal and -metrics export every machine's recorder
		// through the same writers a single CVM uses. Post-mortems and
		// flame graphs stay single-machine.
		if *pmOut != "" || *flameOut != "" {
			log.Fatal("veil-sim: -fleet does not support -postmortem/-flame")
		}
		if err := runFleet(*fleet, *memMB<<20, *traceOut, *causalOut, *metrics, *auditOn); err != nil {
			log.Fatalf("veil-sim: %v", err)
		}
		return
	}

	var rec *obs.Recorder
	if *traceOut != "" || *causalOut != "" || *metrics || *flameOut != "" {
		rec = obs.NewRecorder(obs.DefaultCapacity)
	}
	c, a, err := run(*memMB<<20, *vcpus, rec, *auditOn)
	if err != nil {
		log.Fatalf("veil-sim: %v", err)
	}
	violated := false
	if a != nil {
		a.Sweep()
		fmt.Printf("Auditor: %d fast passes, %d sweeps, %d violations\n",
			a.FastRuns(), a.SweepRuns(), a.Violations())
		for _, d := range a.Details() {
			fmt.Printf("  violation: %s\n", d)
		}
		// The demo is a clean workload: any violation is a simulator bug,
		// and CI runs `veil-sim -audit` exactly to catch that.
		violated = a.Violations() > 0
	}
	if *pmOut != "" {
		pm := c.M.PostMortem()
		if pm == nil {
			fmt.Println("No post-mortem was frozen during this run")
		} else {
			if err := writeFile(*pmOut, pm.WriteJSON); err != nil {
				log.Fatalf("veil-sim: post-mortem: %v", err)
			}
			fmt.Printf("Post-mortem (%q, %d events) written to %s — inspect with veil-postmortem\n",
				pm.Reason, len(pm.Events), *pmOut)
		}
	}
	if *flameOut != "" {
		if err := writeFlame(*flameOut, rec); err != nil {
			log.Fatalf("veil-sim: flame graph: %v", err)
		}
		fmt.Printf("Flame graph written to %s (virtual cycles; render with flamegraph.pl or speedscope)\n", *flameOut)
	}
	if err := exportRun(os.Stdout, []*obs.Recorder{rec}, *traceOut, *causalOut, *metrics); err != nil {
		log.Fatalf("veil-sim: %v", err)
	}
	if violated {
		stopProfile() // os.Exit skips the deferred stop
		os.Exit(1)
	}
}

// exportRun writes the exports a run asked for, over one recorder per
// machine (a single CVM is a fleet of one): traceOut gets the Chrome
// timeline, causalOut the causal request view, and with metrics the
// Prometheus page goes to out. Every write and close error is returned.
func exportRun(out io.Writer, recs []*obs.Recorder, traceOut, causalOut string, metrics bool) error {
	if traceOut != "" {
		err := writeFile(traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, obs.ChromeOptions{
				ProcessName:          "veil-sim",
				CyclesPerMicrosecond: float64(snp.SimClockHz) / 1e6,
				SyscallName:          func(n uint64) string { return kernel.SysNo(n).Name() },
			}, recs...)
		})
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		events, dropped := 0, uint64(0)
		for _, r := range recs {
			events += r.Len()
			dropped += r.Dropped()
		}
		fmt.Printf("Trace timeline written to %s (%d machines, %d events, %d dropped) — open in Perfetto or chrome://tracing\n",
			traceOut, len(recs), events, dropped)
	}
	if causalOut != "" {
		err := writeFile(causalOut, func(w io.Writer) error { return obs.WriteCausalTrace(w, recs...) })
		if err != nil {
			return fmt.Errorf("causal view: %w", err)
		}
		reqs, edges, err := obs.FleetCriticalPaths(recs)
		if err != nil {
			return err
		}
		fmt.Printf("Causal view written to %s (%d cross-machine traces, %d wire edges, %d unmatched)\n",
			causalOut, len(reqs), len(edges.Edges), edges.UnmatchedRx+edges.UnmatchedTx)
	}
	if metrics {
		if _, err := fmt.Fprintln(out); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if err := obs.WritePrometheus(out, recs...); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	return nil
}

// writeFile creates path, hands it to write and closes it, returning the
// first error of the three.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFlame exports the recorder's causal forest as folded stacks whose
// sample counts are virtual self-cycles, with syscall numbers and service
// ids resolved to names.
func writeFlame(path string, rec *obs.Recorder) error {
	return writeFile(path, func(w io.Writer) error {
		return obs.WriteFlamegraph(w, rec, obs.FlamegraphOptions{
			Root:        "veil-sim",
			ServiceName: serviceName,
			SyscallName: func(n uint64) string { return kernel.SysNo(n).Name() },
		})
	})
}

// serviceName resolves a protected-service id to its registry name.
func serviceName(svc uint64) string {
	names := core.ServiceNames()
	if svc < uint64(len(names)) {
		return names[svc]
	}
	return fmt.Sprintf("svc%d", svc)
}

func run(mem uint64, vcpus int, rec *obs.Recorder, auditOn bool) (*cvm.CVM, *audit.Auditor, error) {
	fmt.Printf("Booting Veil CVM: %d MiB, %d VCPUs...\n", mem>>20, vcpus)
	c, err := cvm.Boot(cvm.Options{MemBytes: mem, VCPUs: vcpus, Veil: true, LogPages: 64, Recorder: rec})
	if err != nil {
		return nil, nil, err
	}
	var a *audit.Auditor
	if auditOn {
		a = audit.Attach(c.M, audit.Config{})
		if rec != nil {
			rec.AddAuxCounters(a.Counters)
		}
	}
	fmt.Printf("  boot work: %.3f simulated seconds (%d cycles)\n",
		c.M.Clock().Seconds(), c.M.Clock().Cycles())
	fmt.Printf("  launch measurement: %x\n", c.ExpectedMeasurement())

	// Remote attestation + secure channel (§5.1).
	user, err := core.NewRemoteUser(c.PSP.PublicKey(), c.ExpectedMeasurement(), nil)
	if err != nil {
		return c, a, err
	}
	if err := user.Connect(c.Stub); err != nil {
		return c, a, fmt.Errorf("attestation: %w", err)
	}
	fmt.Println("  remote user attested the CVM (VMPL0 report) and opened the secure channel")

	// VeilS-Log: audit a few syscalls, retrieve over the channel (§6.3).
	c.K.Audit().SetRules(kernel.DefaultRuleset())
	p := c.K.Spawn("demo")
	fd, err := c.K.Open(p, "/tmp/hello.txt", kernel.OCreat|kernel.ORdwr, 0o644)
	if err != nil {
		return c, a, err
	}
	if _, err := c.K.Write(p, fd, []byte("hello veil\n")); err != nil {
		return c, a, err
	}
	stats, err := user.Request(c.Stub, append([]byte{core.SvcLOG}, "STATS"...))
	if err != nil {
		return c, a, err
	}
	fmt.Printf("  VeilS-Log: %s (tamper-proof, retrieved over the channel)\n", stats)

	// VeilS-Kci: load a signed module, then show the text is immutable.
	mod := &vmod.Module{
		Name: "veil_demo", Text: bytes.Repeat([]byte{0x90}, 2000),
		Data: []byte("demo data"), BSS: 4096,
		Relocs: []vmod.Reloc{{Offset: 0, Symbol: "printk"}},
	}
	lm, err := c.K.Modules().Load(mod.Sign(c.ModulePriv))
	if err != nil {
		return c, a, fmt.Errorf("module load: %w", err)
	}
	fmt.Printf("  VeilS-Kci: module %q verified, relocated and installed (%d B)\n", lm.Name, lm.Size)
	tampered := mod.Sign(c.ModulePriv)
	tampered[64] ^= 0xFF
	if _, err := c.K.Modules().Load(tampered); err == nil {
		return c, a, fmt.Errorf("tampered module was accepted")
	}
	fmt.Println("  VeilS-Kci: tampered module rejected")

	// VeilS-Enc: run a program inside an enclave.
	prog := sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
		f, err := lc.Open("/tmp/secret", kernel.OCreat|kernel.ORdwr, 0o600)
		if err != nil {
			return 1
		}
		lc.Write(f, []byte("computed inside the enclave: "+args[0]))
		lc.Close(f)
		return 0
	})
	host := c.K.Spawn("enclave-host")
	app, err := sdk.LaunchEnclave(c, host, prog, sdk.EnclaveConfig{RegionPages: 16})
	if err != nil {
		return c, a, fmt.Errorf("enclave: %w", err)
	}
	// The user verifies the enclave measurement over the channel.
	msg := append([]byte{core.SvcENC}, []byte("MEASURE ")...)
	var id [4]byte
	binary.LittleEndian.PutUint32(id[:], app.ID)
	meas, err := user.Request(c.Stub, append(msg, id[:]...))
	if err != nil {
		return c, a, err
	}
	if !bytes.Equal(meas, app.Measurement[:]) {
		return c, a, fmt.Errorf("enclave measurement mismatch")
	}
	rc, err := app.Enter("42")
	if err != nil || rc != 0 {
		return c, a, fmt.Errorf("enclave run: rc=%d err=%v", rc, err)
	}
	fmt.Printf("  VeilS-Enc: enclave %d attested (measurement %x...) and ran with %d exits\n",
		app.ID, app.Measurement[:6], app.Enclave().Exits())

	// Show the enforcement is real: the kernel cannot read enclave pages.
	frames, _ := host.RegionFrames(kernel.UserBinBase)
	if err := c.K.ReadPhys(frames[0], make([]byte, 8)); !snp.IsNPF(err) {
		return c, a, fmt.Errorf("enclave memory was readable by the OS")
	}
	fmt.Println("  enforcement check: OS read of enclave memory → #NPF, CVM halted (as designed)")
	fmt.Printf("\nTrace: %d syscalls, %d domain switches, %d enclave exits, %d audit records\n",
		c.M.Trace().Syscalls, c.M.Trace().DomainSwitches,
		c.M.Trace().EnclaveExits, c.M.Trace().AuditRecords)
	fmt.Fprintln(os.Stdout, "veil-sim: all services demonstrated")
	return c, a, nil
}

package main

// The -fleet demo: boot N Veil CVMs as one fleet on the simulated fabric
// and run an attested VeilS-Channel ring — every machine dials its right
// neighbour, the neighbour verifies the caller's launch measurement from
// the fleet directory before any payload flows, and a couple of sealed
// echo rounds cross each link. The run is byte-deterministic for the
// fixed seed, so its output doubles as a smoke test for the multi-machine
// stepper.

import (
	"fmt"
	"os"

	"veil/internal/audit"
	"veil/internal/cvm"
	"veil/internal/fabric"
	"veil/internal/obs"
)

const (
	fleetSeed   = 4242
	fleetRounds = 2
)

// runFleet is the -fleet N entry point.
func runFleet(n int, mem uint64, traceOut, causalOut string, metrics, auditOn bool) error {
	fmt.Printf("Booting Veil fleet: %d CVMs, %d MiB each...\n", n, mem>>20)
	var recs []*obs.Recorder
	if traceOut != "" || causalOut != "" || metrics {
		recs = make([]*obs.Recorder, n)
		for i := range recs {
			recs[i] = obs.NewRecorder(obs.DefaultCapacity)
		}
	}
	f, err := cvm.BootFleet(cvm.FleetOptions{
		Machines: n,
		Seed:     fleetSeed,
		Base:     cvm.Options{MemBytes: mem, VCPUs: 1, LogPages: 64},
		// Zero jitter keeps each link FIFO: the initiator's first sealed
		// frame follows right behind its Answer, and VeilS-Channel refuses
		// data that leapfrogs the handshake (the attack suite covers the
		// reordering fabric; the demo wants the clean run).
		Link:      fabric.LinkModel{BaseLatency: 1_000_000},
		Recorders: recs,
	})
	if err != nil {
		return err
	}
	for id := range f.CVMs {
		meas := f.Directory[id]
		fmt.Printf("  m%d launch measurement: %x...\n", id, meas[:8])
	}

	var auditors []*audit.Auditor
	if auditOn {
		for _, c := range f.CVMs {
			auditors = append(auditors, audit.Attach(c.M, audit.Config{}))
		}
	}

	// Ring topology: machine i initiates toward (i+1) mod n, so every
	// machine holds one initiator end and one responder end.
	plan := cvm.EchoPlan{Rounds: fleetRounds}
	for id := 0; id < n; id++ {
		plan.Sessions = append(plan.Sessions, [2]int{id, (id + 1) % n})
	}
	stats, err := f.RunEcho(plan)
	if err != nil {
		return err
	}

	fmt.Printf("  %d attested sessions established (measurement + VMPL verified before payload)\n", n)
	fmt.Printf("  fabric: %d frames sent, %d delivered, %d reordered; stepper: %d steps, %d idle jumps\n",
		stats.Fabric.Sent, stats.Fabric.Delivered, stats.Fabric.Reordered, stats.Steps, stats.IdleJumps)
	for _, m := range stats.Machines {
		cs := f.CVMs[m.ID].CHN.Stats()
		fmt.Printf("  m%d: %d cycles (%d idle), %d sessions, %d sealed sent, %d opened\n",
			m.ID, m.Cycles, m.IdleCycles, cs.Established, cs.Sent, cs.Received)
	}

	var violations uint64
	for i, a := range auditors {
		a.Sweep()
		violations += a.Violations()
		for _, d := range a.Details() {
			fmt.Printf("  m%d violation: %s\n", i, d)
		}
	}
	if auditOn {
		fmt.Printf("Auditors: %d machines, %d violations\n", len(auditors), violations)
	}

	if err := exportRun(os.Stdout, recs, traceOut, causalOut, metrics); err != nil {
		return err
	}

	fmt.Println("veil-sim: fleet ring demonstrated")
	if violations > 0 {
		return fmt.Errorf("%d auditor violations", violations)
	}
	return nil
}

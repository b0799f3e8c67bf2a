// The fleet experiment: three Veil CVMs booted as one fleet, exchanging
// attested VeilS-Channel traffic over the simulated fabric while each
// machine also serves a local VeilS-Log tenant — the mixed-tenant shape a
// protected-services deployment actually runs. Sessions form a triangle
// (0→1, 0→2, 1→2); every initiator plays lockstep request/echo rounds, so
// the message count is fixed and every cycle number is deterministic. The
// merged per-machine Chrome trace, Prometheus page and causal view are
// hashed into the result, which is how the tests and the committed golden
// pin "same seed → byte-identical fleet exports" across -j and GOMAXPROCS
// settings.
package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"veil/internal/cvm"
	"veil/internal/fabric"
	"veil/internal/obs"
	"veil/internal/sched"
	"veil/internal/snp"
)

const (
	fleetMachines = 3
	// fleetRounds is the request/echo rounds per session; with the
	// triangle topology the fleet exchanges 2 * 3 * fleetRounds sealed
	// data messages (plus the handshake frames).
	fleetRounds = 4
	// fleetLocalLogs is each machine's local-tenant VeilS-Log quota: one
	// append per scheduler slice, interleaved with channel frames.
	fleetLocalLogs = 8
	fleetSeed      = 9900
	// Link model: ~0.5 ms base latency (datacenter RTT at SimClockHz) with
	// jitter, no loss — the honest fleet (the attack suite exercises the
	// hostile fabric). The latency is deliberately larger than a scheduler
	// slice so machines genuinely park on the fabric and the rendezvous
	// idle accounting shows up in the result.
	fleetBaseLatency = 1_000_000
	fleetJitter      = 100_000
)

// FleetMachineRow is one machine's share of the fleet run.
type FleetMachineRow struct {
	Machine    int
	Cycles     uint64 // final virtual clock, rendezvous idle included
	IdleCycles uint64 // CostIdle share: parked waiting on the fabric
	BusyCycles uint64 // Cycles - IdleCycles

	ChnEstablished uint64
	ChnSent        uint64 // data messages sealed here
	ChnReceived    uint64 // data messages opened here
	LogAppends     uint64 // local VeilS-Log tenant traffic
}

// FleetResult is the whole experiment.
type FleetResult struct {
	Machines  int
	Sessions  int
	Rounds    int
	LocalLogs int

	// Stepper/fabric shape of the run.
	Steps           uint64
	IdleJumps       uint64
	FabricSent      uint64
	FabricDelivered uint64
	FabricDropped   uint64
	FabricReordered uint64

	// MakespanCycles is the slowest machine's final clock — the fleet's
	// virtual wall-clock. Messages counts sealed data messages opened
	// fleet-wide; CyclesPerMessage = makespan / messages.
	MakespanCycles   uint64
	Messages         uint64
	CyclesPerMessage uint64
	// FairnessJain is Jain's index over per-machine busy (non-idle)
	// cycles: 1.0 = the fleet's work is perfectly balanced.
	FairnessJain float64

	PerMachine []FleetMachineRow

	// MergedTraceSHA256 digests the merged per-machine Chrome trace
	// (obs.WriteChromeTrace over all recorders). Byte-determinism of the
	// whole fleet timeline collapses to equality of this one string.
	MergedTraceSHA256 string

	// FleetSummarySHA256 digests the machine-labeled Prometheus page
	// (obs.WritePrometheus over all recorders) — pins the telemetry plane
	// the same way MergedTraceSHA256 pins the timeline.
	FleetSummarySHA256 string
	// FleetCausalSHA256 digests the fleet's causal view
	// (obs.WriteCausalTrace over all recorders): per-machine request
	// forests, wire edges and cross-machine critical paths.
	FleetCausalSHA256 string
	// Cross-machine trace plumbing (obs v4): matched NetTx→NetRx edges,
	// distinct traces seen crossing the wire, and summed wire latency
	// (WireCycles, charged to no machine — gated by -compare like every
	// other cycle count). UnmatchedRx counts arrivals whose sending
	// breadcrumb was lost; the honest run requires it to be zero.
	CrossEdges  int
	CrossTraces int
	WireCycles  uint64
	UnmatchedRx int
}

// Fleet runs the experiment from fixed seeds.
func Fleet() (FleetResult, error) {
	recs := make([]*obs.Recorder, fleetMachines)
	for i := range recs {
		recs[i] = obs.NewRecorder(benchRingCap)
	}
	f, err := cvm.BootFleet(cvm.FleetOptions{
		Machines:  fleetMachines,
		Seed:      fleetSeed,
		Base:      cvm.Options{MemBytes: 32 << 20, VCPUs: 1, LogPages: 256},
		Link:      fabric.LinkModel{BaseLatency: fleetBaseLatency, Jitter: fleetJitter},
		Recorders: recs,
	})
	if err != nil {
		return FleetResult{}, err
	}
	for _, c := range f.CVMs {
		auditBoot(c)
	}

	plan := cvm.EchoPlan{Sessions: [][2]int{{0, 1}, {0, 2}, {1, 2}}, Rounds: fleetRounds, LocalLogs: fleetLocalLogs}
	stats, err := f.RunEcho(plan)
	if err != nil {
		return FleetResult{}, err
	}

	r := FleetResult{
		Machines: fleetMachines, Sessions: len(plan.Sessions), Rounds: fleetRounds, LocalLogs: fleetLocalLogs,
		Steps: stats.Steps, IdleJumps: stats.IdleJumps,
		FabricSent: stats.Fabric.Sent, FabricDelivered: stats.Fabric.Delivered,
		FabricDropped: stats.Fabric.Dropped, FabricReordered: stats.Fabric.Reordered,
	}
	busy := make([]uint64, fleetMachines)
	for i, m := range stats.Machines {
		cs := f.CVMs[i].CHN.Stats()
		row := FleetMachineRow{
			Machine: m.ID, Cycles: m.Cycles, IdleCycles: m.IdleCycles, BusyCycles: m.Cycles - m.IdleCycles,
			ChnEstablished: cs.Established, ChnSent: cs.Sent, ChnReceived: cs.Received,
			LogAppends: fleetLocalLogs,
		}
		r.PerMachine = append(r.PerMachine, row)
		busy[i] = row.BusyCycles
		r.Messages += cs.Received
		if m.Cycles > r.MakespanCycles {
			r.MakespanCycles = m.Cycles
		}
	}
	r.CyclesPerMessage = r.MakespanCycles / r.Messages
	r.FairnessJain = sched.JainIndex(busy)

	h := sha256.New()
	if err := obs.WriteChromeTrace(h, obs.ChromeOptions{CyclesPerMicrosecond: snp.SimClockHz / 1e6}, recs...); err != nil {
		return r, err
	}
	r.MergedTraceSHA256 = hex.EncodeToString(h.Sum(nil))

	hs := sha256.New()
	if err := obs.WritePrometheus(hs, recs...); err != nil {
		return r, err
	}
	r.FleetSummarySHA256 = hex.EncodeToString(hs.Sum(nil))

	hc := sha256.New()
	if err := obs.WriteCausalTrace(hc, recs...); err != nil {
		return r, err
	}
	r.FleetCausalSHA256 = hex.EncodeToString(hc.Sum(nil))

	edges, err := obs.BuildFleetEdges(recs)
	if err != nil {
		return r, err
	}
	traces := make(map[uint64]bool)
	for _, e := range edges.Edges {
		traces[e.Trace] = true
		r.WireCycles += e.WireCycles
	}
	r.CrossEdges = len(edges.Edges)
	r.CrossTraces = len(traces)
	r.UnmatchedRx = edges.UnmatchedRx
	// The honest fleet must produce a fully connected request view: real
	// cross-machine traces, and every arrival joined to its departure.
	if r.CrossTraces == 0 {
		return r, fmt.Errorf("bench: fleet run produced no cross-machine traces")
	}
	if r.UnmatchedRx != 0 {
		return r, fmt.Errorf("bench: fleet run left %d NetRx breadcrumbs unmatched", r.UnmatchedRx)
	}
	return r, nil
}

// ReportFleet prints the experiment.
func ReportFleet(w io.Writer, r FleetResult) {
	fmt.Fprintf(w, "Fleet — %d CVMs, %d attested VeilS-Channel sessions, %d echo rounds each, %d local log appends per machine\n",
		r.Machines, r.Sessions, r.Rounds, r.LocalLogs)
	fmt.Fprintf(w, "  fabric: %d sent, %d delivered, %d reordered, %d dropped; stepper: %d steps, %d idle jumps\n",
		r.FabricSent, r.FabricDelivered, r.FabricReordered, r.FabricDropped, r.Steps, r.IdleJumps)
	fmt.Fprintf(w, "  makespan %d cycles for %d sealed messages (%d cycles/message), busy-cycle fairness %.4f\n",
		r.MakespanCycles, r.Messages, r.CyclesPerMessage, r.FairnessJain)
	fmt.Fprintf(w, "  %-8s %14s %14s %14s  %5s %5s %5s %5s\n",
		"machine", "cycles", "busy", "idle", "estab", "sent", "recv", "logs")
	for _, m := range r.PerMachine {
		fmt.Fprintf(w, "  m%-7d %14d %14d %14d  %5d %5d %5d %5d\n",
			m.Machine, m.Cycles, m.BusyCycles, m.IdleCycles,
			m.ChnEstablished, m.ChnSent, m.ChnReceived, m.LogAppends)
	}
	fmt.Fprintf(w, "  wire: %d cross-machine edges over %d traces, %d wire cycles, %d unmatched rx\n",
		r.CrossEdges, r.CrossTraces, r.WireCycles, r.UnmatchedRx)
	fmt.Fprintf(w, "  merged trace sha256 %s\n", r.MergedTraceSHA256)
	fmt.Fprintf(w, "  fleet summary sha256 %s\n", r.FleetSummarySHA256)
	fmt.Fprintf(w, "  fleet causal sha256 %s\n", r.FleetCausalSHA256)
}

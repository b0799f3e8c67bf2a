package cvm

// Fleet assembly: N Veil CVMs booted against one shared PSP identity,
// connected by a simulated fabric, and driven in virtual-time lockstep.
//
// Each machine is its own deterministic clock domain, and one goroutine —
// the caller's — steps them all: the stepper calls a machine's scheduler
// and interrupt path directly, one machine at a time. No machine state is
// shared with another goroutine, so a run is byte-deterministic for a
// given seed regardless of GOMAXPROCS or host scheduling.
//
// The stepping rule is classic conservative discrete-event simulation:
// every machine exposes a "next event" virtual time — its own clock while
// it has runnable work, the earliest pending fabric arrival while it is
// blocked — and the stepper always advances the machine with the lowest
// one (ties broken by machine id). A blocked machine jumps its clock to
// the arrival (charged as CostIdle) and takes delivery through its
// interrupt path, exactly as a completion interrupt wakes a WaitIntr
// sleeper on a single machine.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"veil/internal/attest"
	"veil/internal/fabric"
	"veil/internal/obs"
	"veil/internal/sched"
	"veil/internal/snp"
)

// ErrFleetStalled is returned when every live machine is blocked and no
// frame is in flight toward any of them — the fleet-level analogue of
// sched.ErrStalled.
var ErrFleetStalled = errors.New("cvm: fleet stalled: all machines blocked with no frame in flight")

// FleetOptions configures BootFleet.
type FleetOptions struct {
	// Machines is the fleet size (>= 2).
	Machines int
	// Seed derives every machine's key-material reader, the shared PSP
	// identity and the fabric's link generators. Equal seeds reproduce the
	// fleet byte-for-byte.
	Seed int64
	// Base is the per-machine template (memory, VCPUs, log pages, flight
	// options). Veil is forced on; Rand, PSP and Fleet are overwritten per
	// machine. Base.Recorder is ignored — use Recorders.
	Base Options
	// Link is the fabric link model of every directed pair.
	Link fabric.LinkModel
	// Recorders, when non-empty, must hold one recorder per machine; each
	// is attached before launch so traces capture boot.
	Recorders []*obs.Recorder
}

// Fleet is a booted set of machines plus their fabric.
type Fleet struct {
	CVMs []*CVM
	Fab  *fabric.Fabric
	PSP  *attest.PSP
	// Directory maps machine id → expected launch measurement; it is
	// provisioned into every member's VeilS-Channel at boot.
	Directory map[int][32]byte
	// seed is FleetOptions.Seed; RunEcho derives its schedulers from it.
	seed int64
}

// seededRand is SeededRand's reader.
type seededRand struct{ r *rand.Rand }

func (d seededRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

// SeededRand is the deterministic key-material source, the simulator's
// stand-in for crypto/rand.Reader: a math/rand source drawing one
// Intn(256) per byte, so the same seed yields the same keys.
func SeededRand(seed int64) io.Reader { return seededRand{r: rand.New(rand.NewSource(seed))} }

// machineRand derives machine id's key reader from the fleet seed; id -1
// is the shared PSP identity. The multiplier keeps per-machine streams
// disjoint from the fabric's per-link generators.
func machineRand(seed int64, id int) io.Reader {
	return SeededRand(seed*2_654_435_761 + int64(id))
}

// BootFleet boots opts.Machines Veil CVMs, each with its own seeded key
// reader and fleet identity, sharing one PSP, connected by a seeded
// fabric. The measurement directory is collected from the booted machines
// and provisioned into every member's VeilS-Channel, and each machine's
// kernel stub is wired to transmit on the fabric.
func BootFleet(opts FleetOptions) (*Fleet, error) {
	if opts.Machines < 2 {
		return nil, fmt.Errorf("cvm: fleet needs >= 2 machines, got %d", opts.Machines)
	}
	if len(opts.Recorders) != 0 && len(opts.Recorders) != opts.Machines {
		return nil, fmt.Errorf("cvm: %d recorders for %d machines", len(opts.Recorders), opts.Machines)
	}
	psp, err := attest.NewPSP(machineRand(opts.Seed, -1))
	if err != nil {
		return nil, err
	}
	fab, err := fabric.New(fabric.Config{
		Machines: opts.Machines,
		Seed:     opts.Seed,
		Default:  opts.Link,
	})
	if err != nil {
		return nil, err
	}
	f := &Fleet{Fab: fab, PSP: psp, Directory: make(map[int][32]byte), seed: opts.Seed}
	for id := 0; id < opts.Machines; id++ {
		o := opts.Base
		o.Veil = true
		o.PSP = psp
		o.Rand = machineRand(opts.Seed, id)
		o.Fleet = &FleetMember{ID: id}
		o.Recorder = nil
		if len(opts.Recorders) > 0 {
			o.Recorder = opts.Recorders[id]
			o.Recorder.SetMachine(id)
		}
		c, err := Boot(o)
		if err != nil {
			return nil, fmt.Errorf("cvm: fleet machine %d: %w", id, err)
		}
		f.CVMs = append(f.CVMs, c)
		f.Directory[id] = c.ExpectedMeasurement()
	}
	for id, c := range f.CVMs {
		c.CHN.SetDirectory(f.Directory)
		c.M.SetMachineID(id)
		src := id
		clock := c.M.Clock()
		tx := func(dst int, frame []byte) error {
			return fab.Send(src, dst, frame, clock.Cycles())
		}
		for _, st := range c.Stubs {
			st.SetNetSender(tx)
		}
		// Surface this machine's fabric-link counters and wire-latency
		// gauges through its recorder, so fleet exporters label them per
		// machine. Pull-based: nothing here runs on the message hot path.
		if r := c.M.Recorder(); r != nil {
			r.AddAuxCounters(fab.CountersFor(id))
			r.AddAuxGauges(fab.GaugesFor(id))
		}
	}
	return f, nil
}

// MachineStats is one machine's share of a fleet run.
type MachineStats struct {
	ID int
	// Cycles is the machine's final virtual clock (including CostIdle
	// rendezvous jumps).
	Cycles uint64
	// IdleCycles is the CostIdle share of Cycles — time spent parked
	// waiting for fabric arrivals.
	IdleCycles uint64
	Sched      sched.Stats
}

// FleetStats aggregates one Fleet.Run.
type FleetStats struct {
	Machines []MachineStats
	Fabric   fabric.Stats
	// Steps counts stepper decisions; IdleJumps counts blocked-machine
	// clock advances to a fabric arrival.
	Steps     uint64
	IdleJumps uint64
}

// fleetMaxSteps bounds Run as a liveness backstop (two machines
// ping-ponging one frame per step burn two steps per round trip; this
// allows millions).
const fleetMaxSteps = 1 << 24

// machine phases tracked by the stepper.
type fleetPhase int

const (
	phaseRunnable fleetPhase = iota
	phaseWaiting             // StepAllBlocked: only a fabric delivery can help
	phaseDone
)

type fleetDomain struct {
	id    int
	c     *CVM
	sch   *sched.Scheduler
	phase fleetPhase
	// clock is the machine's virtual clock as of its last step or
	// delivery in this run (0 before the first): the stepper orders
	// machines by what it last observed of them.
	clock uint64
}

// runStep runs one scheduler step on the machine.
func (d *fleetDomain) runStep() (sched.StepResult, error) {
	r, err := d.sch.Step()
	d.clock = d.c.M.Clock().Cycles()
	return r, err
}

// deliver advances the machine's clock to advance (CostIdle; a no-op when
// the clock is already there), pushes every due frame, and raises one
// completion interrupt for the batch (NIC coalescing): the Dom-UNT
// handler runs, the scheduler's Wake unblocks the receive path.
func (d *fleetDomain) deliver(due []fabric.Message, advance uint64) error {
	d.c.M.Clock().AdvanceTo(advance, snp.CostIdle)
	for _, m := range due {
		d.c.PushNetFrame(m.Payload)
	}
	err := d.c.HV.InjectInterrupt(0)
	d.clock = d.c.M.Clock().Cycles()
	return err
}

// Run drives every machine to completion in virtual-time lockstep. scheds
// holds one scheduler per machine (built over that machine's snp.Machine,
// tasks already added); Run wires each machine's interrupt path to its
// scheduler's Wake and steps the fleet on the calling goroutine until all
// schedulers report done.
func (f *Fleet) Run(scheds []*sched.Scheduler) (FleetStats, error) {
	if len(scheds) != len(f.CVMs) {
		return FleetStats{}, fmt.Errorf("cvm: %d schedulers for %d machines", len(scheds), len(f.CVMs))
	}
	domains := make([]*fleetDomain, len(f.CVMs))
	for i, c := range f.CVMs {
		sch := scheds[i]
		c.OnInterrupt(func(vcpu int) { sch.Wake(vcpu) })
		domains[i] = &fleetDomain{id: i, c: c, sch: sch}
	}
	stats, err := f.step(domains)
	for _, d := range domains {
		clk := d.c.M.Clock()
		stats.Machines = append(stats.Machines, MachineStats{
			ID: d.id, Cycles: clk.Cycles(), IdleCycles: clk.CyclesOf(snp.CostIdle), Sched: d.sch.Stats(),
		})
	}
	stats.Fabric = f.Fab.Stats()
	return stats, err
}

// step is the stepper loop. Phase rules:
//   - runnable machines advertise their own clock as their next event;
//   - waiting machines advertise their earliest fabric arrival (nothing
//     pending → no event: they are unreachable until someone sends);
//   - the lowest (event time, id) pair goes next.
func (f *Fleet) step(domains []*fleetDomain) (FleetStats, error) {
	var st FleetStats
	for ; st.Steps < fleetMaxSteps; st.Steps++ {
		var pick *fleetDomain
		var pickAt uint64
		live := false
		for _, d := range domains {
			var at uint64
			switch d.phase {
			case phaseRunnable:
				live = true
				at = d.clock
			case phaseWaiting:
				live = true
				arr, ok := f.Fab.NextArrival(d.id)
				if !ok {
					continue
				}
				if arr < d.clock {
					arr = d.clock
				}
				at = arr
			default:
				continue
			}
			if pick == nil || at < pickAt {
				pick, pickAt = d, at
			}
		}
		if pick == nil {
			if !live {
				return st, nil // every machine done
			}
			return st, fmt.Errorf("%w (%d machines waiting)", ErrFleetStalled, countPhase(domains, phaseWaiting))
		}

		// Take delivery of everything due at the event time. A waiting
		// machine jumps its clock to the arrival first (CostIdle).
		if due := f.Fab.Due(pick.id, pickAt); len(due) > 0 {
			advance := uint64(0)
			if pick.phase == phaseWaiting {
				advance = pickAt
				st.IdleJumps++
			}
			if err := pick.deliver(due, advance); err != nil {
				return st, fmt.Errorf("cvm: fleet machine %d delivery: %w", pick.id, err)
			}
			pick.phase = phaseRunnable
		} else if pick.phase == phaseWaiting {
			// The arrival indexed this pick but a competing earlier event
			// consumed it (cannot happen with per-destination queues, but
			// cheap to keep the loop total): re-evaluate.
			continue
		}

		status, err := pick.runStep()
		if err != nil {
			return st, fmt.Errorf("cvm: fleet machine %d: %w", pick.id, err)
		}
		switch status {
		case sched.StepDone:
			pick.phase = phaseDone
		case sched.StepAllBlocked:
			pick.phase = phaseWaiting
		default:
			pick.phase = phaseRunnable
		}
	}
	return st, fmt.Errorf("cvm: fleet exceeded %d steps: %w", uint64(fleetMaxSteps), ErrFleetStalled)
}

func countPhase(domains []*fleetDomain, p fleetPhase) int {
	n := 0
	for _, d := range domains {
		if d.phase == p {
			n++
		}
	}
	return n
}

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
	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/fabric"
	"veil/internal/obs"
	"veil/internal/sched"
	"veil/internal/services/chn"
)

const (
	fleetSeed   = 4242
	fleetRounds = 2
)

// ringEnd is one side of one ring session (machine init → init+1 mod N).
type ringEnd struct {
	init      int
	peer      int
	sid       uint32
	initiator bool
	dialed    bool
	sent      int
	received  int
}

func (e *ringEnd) done() bool {
	if e.initiator {
		return e.sent >= fleetRounds && e.received >= fleetRounds
	}
	return e.received >= fleetRounds
}

// ringTask drives one fleet member through its two ring sessions.
type ringTask struct {
	c    *cvm.CVM
	st   *core.OSStub
	self int
	ends []*ringEnd
}

func (t *ringTask) Step(vcpu int) (sched.Status, error) {
	frames := t.c.DrainNetFrames()
	for _, fr := range frames {
		if err := t.st.ChnDeliver(fr); err != nil {
			return sched.Done, err
		}
	}
	progressed := len(frames) > 0

	allDone := true
	for _, e := range t.ends {
		if e.initiator && !e.dialed {
			sid, err := t.st.ChnDial(e.peer)
			if err != nil {
				return sched.Done, err
			}
			if sid != e.sid {
				return sched.Done, fmt.Errorf("ring dial to m%d got sid %d, want %d", e.peer, sid, e.sid)
			}
			e.dialed = true
			progressed = true
		}
		state, err := t.st.ChnState(e.init, e.sid)
		if err != nil {
			return sched.Done, err
		}
		if state != chn.StateEstablished {
			allDone = false
			continue
		}
		for {
			msg, ok, err := t.st.ChnRecv(e.init, e.sid)
			if err != nil {
				return sched.Done, err
			}
			if !ok {
				break
			}
			e.received++
			progressed = true
			if !e.initiator {
				if err := t.st.ChnSend(e.init, e.sid, append([]byte("echo:"), msg...)); err != nil {
					return sched.Done, err
				}
				e.sent++
			}
		}
		if e.initiator && e.sent < fleetRounds && e.sent == e.received {
			msg := fmt.Sprintf("ring-m%d-r%d", t.self, e.sent+1)
			if err := t.st.ChnSend(e.init, e.sid, []byte(msg)); err != nil {
				return sched.Done, err
			}
			e.sent++
			progressed = true
		}
		if !e.done() {
			allDone = false
		}
	}
	if allDone {
		return sched.Done, nil
	}
	if progressed {
		return sched.Yield, nil
	}
	return sched.Blocked, nil
}

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

	// Ring topology: machine i initiates toward (i+1) mod n; every machine
	// therefore holds one initiator end (its first dial → sid 0) and one
	// responder end for its left neighbour's session.
	tasks := make([]*ringTask, n)
	scheds := make([]*sched.Scheduler, n)
	for id := 0; id < n; id++ {
		out := &ringEnd{init: id, peer: (id + 1) % n, sid: 0, initiator: true}
		in := &ringEnd{init: (id - 1 + n) % n, peer: (id - 1 + n) % n, sid: 0}
		tasks[id] = &ringTask{c: f.CVMs[id], st: f.CVMs[id].Stub, self: id, ends: []*ringEnd{out, in}}
		scheds[id] = sched.New(sched.Config{Machine: f.CVMs[id].M, VCPUs: 1, Seed: fleetSeed + int64(id)})
		if err := scheds[id].Add(0, 1, tasks[id]); err != nil {
			return err
		}
	}
	stats, err := f.Run(scheds)
	if err != nil {
		return err
	}

	fmt.Printf("  %d attested sessions established (measurement + VMPL verified before payload)\n", n)
	fmt.Printf("  fabric: %d frames sent, %d delivered, %d reordered; stepper: %d steps, %d idle jumps\n",
		stats.Fabric.Sent, stats.Fabric.Delivered, stats.Fabric.Reordered, stats.Steps, stats.IdleJumps)
	for _, m := range stats.Machines {
		cs := f.CVMs[m.ID].CHN.Stats()
		if cs.Refused != 0 || cs.Dropped != 0 {
			return fmt.Errorf("fleet m%d refused=%d dropped=%d on a clean run", m.ID, cs.Refused, cs.Dropped)
		}
		fmt.Printf("  m%d: %d cycles (%d idle), %d sessions, %d sealed sent, %d opened\n",
			m.ID, m.Cycles, m.IdleCycles, cs.Established, cs.Sent, cs.Received)
	}
	for id, t := range tasks {
		for _, e := range t.ends {
			if !e.done() {
				return fmt.Errorf("fleet m%d session (init %d) incomplete: sent %d received %d", id, e.init, e.sent, e.received)
			}
		}
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

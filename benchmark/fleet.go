package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/fabric"
	"veil/internal/obs"
	"veil/internal/sched"
	"veil/internal/services/chn"
	"veil/internal/snp"
)

// fleet-echo: three CVMs in a triangle of attested VeilS-Channel sessions
// (handshakes run in set-up), then lockstep echo rounds on every session.
// A request is one sealed echo round trip, timed on the initiator's clock.

const (
	fleetMachines    = 3
	fleetSessions    = 3     // the triangle's edges
	fleetRounds      = 2_000 // echo rounds per session per benchmark round
	fleetPayload     = 256
	fleetMem         = 32 << 20
	fleetBaseLatency = 1_000_000
	fleetJitter      = 100_000
)

// fleetEnd is one machine's view of one session.
type fleetEnd struct {
	init, peer int
	sid        uint32
	initiator  bool
	dialed     bool
	sent, recv int
	// initiator side: the request in flight and when it left.
	msg    []byte
	sentAt uint64
	hostAt time.Time
}

// fleetTopology builds the triangle 0→1, 0→2, 1→2. Session ids follow each
// initiator's dial order.
func fleetTopology() [][]*fleetEnd {
	topo := [][]*fleetEnd{
		{{init: 0, peer: 1, sid: 0, initiator: true}, {init: 0, peer: 2, sid: 1, initiator: true}},
		{{init: 0, peer: 0, sid: 0}, {init: 1, peer: 2, sid: 0, initiator: true}},
		{{init: 0, peer: 0, sid: 1}, {init: 1, peer: 1, sid: 0}},
	}
	for _, ends := range topo {
		for _, e := range ends {
			if e.initiator {
				e.msg = make([]byte, fleetPayload)
			}
		}
	}
	return topo
}

// fleetTask drives one machine: relay fabric frames to VeilS-Channel, then
// pump every session end. In the handshake phase it only dials and waits
// for every session to be established; in the echo phase initiators send
// lockstep requests and responders echo them.
type fleetTask struct {
	r      *round
	c      *cvm.CVM
	st     *core.OSStub
	ends   []*fleetEnd
	rounds int
	echo   bool
	rng    *rand.Rand
}

func (t *fleetTask) Step(int) (sched.Status, error) {
	h := t.r.hostNow()
	st, err := t.step()
	if t.echo {
		t.r.since("cvm.step", h)
	}
	return st, err
}

func (t *fleetTask) step() (sched.Status, error) {
	clk := t.c.M.Clock()
	frames := t.c.DrainNetFrames()
	for _, fr := range frames {
		h := t.r.hostNow()
		err := t.st.ChnDeliver(fr)
		t.r.since("chn.deliver", h)
		if errors.Is(err, core.ErrDenied) {
			// VeilS-Channel refused the frame (tampered or replayed); its
			// request is lost and the run goes on without it.
			t.r.fail()
			continue
		}
		if err != nil {
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
				return sched.Done, fmt.Errorf("machine %d dial to %d got session %d, want %d", t.c.M.MachineID(), e.peer, sid, e.sid)
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
		if !t.echo {
			continue
		}
		for {
			h := t.r.hostNow()
			msg, ok, err := t.st.ChnRecv(e.init, e.sid)
			t.r.since("chn.recv", h)
			if err != nil {
				return sched.Done, err
			}
			if !ok {
				break
			}
			progressed = true
			e.recv++
			if e.initiator {
				t.r.request(clk.Cycles() - e.sentAt)
				t.r.since("req", e.hostAt)
				if len(msg) != len("echo:")+len(e.msg) || !bytes.HasPrefix(msg, []byte("echo:")) || !bytes.Equal(msg[5:], e.msg) {
					t.r.failf("session (%d,%d) round %d: echo does not match its request", e.init, e.sid, e.recv)
				}
				continue
			}
			if err := t.send(e, append([]byte("echo:"), msg...)); err != nil {
				return sched.Done, err
			}
		}
		// Lockstep: the next request leaves only once the previous echo is
		// back, so the in-flight traffic and the message count stay fixed.
		if e.initiator && e.sent < t.rounds && e.sent == e.recv {
			t.rng.Read(e.msg)
			e.sentAt, e.hostAt = clk.Cycles(), t.r.hostNow()
			if err := t.send(e, e.msg); err != nil {
				return sched.Done, err
			}
			progressed = true
		}
		if (e.initiator && e.recv < t.rounds) || (!e.initiator && e.sent < t.rounds) {
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

func (t *fleetTask) send(e *fleetEnd, msg []byte) error {
	h := t.r.hostNow()
	err := t.st.ChnSend(e.init, e.sid, msg)
	t.r.since("chn.send", h)
	e.sent++
	return err
}

// fleetRun steps every machine's task to completion under the fleet
// stepper with fresh schedulers.
func fleetRun(r *round, f *cvm.Fleet, topo [][]*fleetEnd, echo bool, rounds int) (cvm.FleetStats, []*sched.Scheduler, error) {
	rng := r.rng(5)
	scheds := make([]*sched.Scheduler, len(f.CVMs))
	for id, c := range f.CVMs {
		t := &fleetTask{r: r, c: c, st: c.Stub, ends: topo[id], rounds: rounds, echo: echo, rng: rng}
		scheds[id] = sched.New(sched.Config{Machine: c.M, VCPUs: 1, Seed: r.seed + int64(id)})
		if err := scheds[id].Add(0, 1, t); err != nil {
			return cvm.FleetStats{}, nil, err
		}
	}
	st, err := f.Run(scheds)
	return st, scheds, err
}

// fleetRound runs one fleet-echo round. tamper, when set, is handed the
// fabric after the handshakes (the hostile-host hook the tests use).
func fleetRound(r *round, tamper func(*fabric.Fabric)) error {
	var recs []*obs.Recorder
	for i := 0; r.traced && i < fleetMachines; i++ {
		recs = append(recs, r.recorder())
	}
	t0 := time.Now()
	f, err := cvm.BootFleet(cvm.FleetOptions{
		Machines:  fleetMachines,
		Seed:      r.seed,
		Base:      cvm.Options{MemBytes: fleetMem, VCPUs: 1},
		Link:      fabric.LinkModel{BaseLatency: fleetBaseLatency, Jitter: fleetJitter},
		Recorders: recs,
	})
	if err != nil {
		return fmt.Errorf("boot fleet: %w", err)
	}
	r.bootDone(t0)
	ms := make([]*snp.Machine, len(f.CVMs))
	for i, c := range f.CVMs {
		ms[i] = c.M
		defer c.M.Release()
	}
	topo := fleetTopology()
	if _, _, err := fleetRun(r, f, topo, false, 0); err != nil {
		return fmt.Errorf("handshakes: %w", err)
	}
	if tamper != nil {
		tamper(f.Fab)
	}
	rounds := r.scaled(fleetRounds)
	r.attempted = uint64(rounds * fleetSessions)
	fab0 := f.Fab.Stats()
	wire0, wireN0 := fleetWire(f.Fab)
	if err := r.beginWindow(ms...); err != nil {
		return err
	}
	st, scheds, runErr := fleetRun(r, f, topo, true, rounds)
	r.endWindow()
	if runErr != nil && !errors.Is(runErr, cvm.ErrFleetStalled) {
		return fmt.Errorf("echo: %w", runErr)
	}
	// A stall means some request never got its echo; the shortfall against
	// attempted counts as failed.
	var refused, dropped uint64
	for i, c := range f.CVMs {
		cs := c.CHN.Stats()
		refused += cs.Refused
		dropped += cs.Dropped
		if cs.Refused != 0 || cs.Dropped != 0 {
			r.failf("machine %d: VeilS-Channel refused %d frames, dropped %d", i, cs.Refused, cs.Dropped)
		}
	}
	r.machineLayers()
	L := r.layer
	L["chn.refused"] = float64(refused)
	L["chn.dropped"] = float64(dropped)
	msgs := 2 * r.requests
	fab := f.Fab.Stats()
	wire, wireN := fleetWire(f.Fab)
	if msgs > 0 {
		L["fabric.frames_per_msg"] = float64(fab.Sent-fab0.Sent) / float64(msgs)
		L["cvm.fleet_steps_per_msg"] = float64(st.Steps) / float64(msgs)
		L["cvm.fleet_idle_jumps_per_msg"] = float64(st.IdleJumps) / float64(msgs)
	}
	if wireN > wireN0 {
		L["fabric.wire_vcyc_per_msg"] = float64(wire-wire0) / float64(wireN-wireN0)
	}
	L["fabric.reordered"] = float64(fab.Reordered - fab0.Reordered)
	if r.vcyc > 0 {
		L["cvm.fleet_idle_ratio"] = float64(r.attr[snp.CostIdle]) / float64(r.vcyc)
	}
	stats := make([]sched.Stats, len(scheds))
	tel := make([]sched.Telemetry, len(scheds))
	for i, s := range scheds {
		stats[i], tel[i] = s.Stats(), s.Telemetry()
	}
	schedLayers(r, stats, tel)
	return nil
}

// fleetWire sums the wire latency and delivered-frame count over every
// directed link.
func fleetWire(fab *fabric.Fabric) (cycles, frames uint64) {
	for s := 0; s < fab.Machines(); s++ {
		for d := 0; d < fab.Machines(); d++ {
			h := fab.LinkLatency(s, d)
			cycles += h.Sum()
			frames += h.Count()
		}
	}
	return cycles, frames
}

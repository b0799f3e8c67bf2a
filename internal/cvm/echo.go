package cvm

// The honest fleet endpoint: every member relays fabric frames to its
// VeilS-Channel, feeds an optional local VeilS-Log tenant, and plays
// lockstep request/echo rounds on each session it belongs to. The fleet
// experiment, the veil-sim ring and the fleet tests all run this one task;
// the hostile endpoint lives with the attacks.

import (
	"fmt"

	"veil/internal/sched"
	"veil/internal/services/chn"
)

// EchoPlan is an honest echo workload over a booted fleet.
type EchoPlan struct {
	// Sessions lists (initiator, responder) machine pairs in dial order.
	// A session's id is its index among its initiator's sessions.
	Sessions [][2]int
	// Rounds is the lockstep request/echo rounds per session.
	Rounds int
	// LocalLogs is each machine's local VeilS-Log quota: one append per
	// scheduler slice, interleaved with the channel traffic.
	LocalLogs int
}

// echoEnd is one machine's view of one session.
type echoEnd struct {
	init, peer int // session initiator machine and the remote end
	sid        uint32
	initiator  bool
	dialed     bool
	sent       int
	received   int
	want       string // initiator: the echo of the outstanding request
}

// echoEnds derives every machine's session ends from the plan: a machine's
// ends are the sessions it belongs to, in plan order.
func echoEnds(plan EchoPlan, machines int) ([][]*echoEnd, error) {
	ends := make([][]*echoEnd, machines)
	dials := make([]uint32, machines)
	for _, s := range plan.Sessions {
		i, r := s[0], s[1]
		if i < 0 || i >= machines || r < 0 || r >= machines || i == r {
			return nil, fmt.Errorf("cvm: echo session %v invalid in a %d-machine fleet", s, machines)
		}
		sid := dials[i]
		dials[i]++
		ends[i] = append(ends[i], &echoEnd{init: i, peer: r, sid: sid, initiator: true})
		ends[r] = append(ends[r], &echoEnd{init: i, peer: i, sid: sid})
	}
	return ends, nil
}

// echoTask drives one machine through its ends. Cooperative state
// machine, stepped by the machine's scheduler.
type echoTask struct {
	c         *CVM
	self      int
	ends      []*echoEnd
	rounds    int
	localLogs int
	logs      int
}

func (t *echoTask) done(e *echoEnd) bool {
	if e.initiator {
		return e.sent >= t.rounds && e.received >= t.rounds
	}
	return e.received >= t.rounds
}

func (t *echoTask) Step(int) (sched.Status, error) {
	st := t.c.Stub
	frames := t.c.DrainNetFrames()
	for _, fr := range frames {
		if err := st.ChnDeliver(fr); err != nil {
			return sched.Done, err
		}
	}
	progressed := len(frames) > 0

	if t.logs < t.localLogs {
		rec := fmt.Sprintf("fleet m%d local-log %d", t.self, t.logs)
		if err := st.AuditEmit([]byte(rec)); err != nil {
			return sched.Done, err
		}
		t.logs++
		progressed = true
	}

	allDone := t.logs >= t.localLogs
	for _, e := range t.ends {
		if e.initiator && !e.dialed {
			sid, err := st.ChnDial(e.peer)
			if err != nil {
				return sched.Done, err
			}
			if sid != e.sid {
				return sched.Done, fmt.Errorf("cvm: echo m%d dial to m%d got sid %d, want %d", t.self, e.peer, sid, e.sid)
			}
			e.dialed = true
			progressed = true
		}
		state, err := st.ChnState(e.init, e.sid)
		if err != nil {
			return sched.Done, err
		}
		if state != chn.StateEstablished {
			allDone = false
			continue
		}
		for {
			msg, ok, err := st.ChnRecv(e.init, e.sid)
			if err != nil {
				return sched.Done, err
			}
			if !ok {
				break
			}
			if e.initiator && string(msg) != e.want {
				return sched.Done, fmt.Errorf("cvm: echo m%d session (init %d, sid %d) got %q, want %q",
					t.self, e.init, e.sid, msg, e.want)
			}
			e.received++
			progressed = true
			if !e.initiator {
				if err := st.ChnSend(e.init, e.sid, append([]byte("echo:"), msg...)); err != nil {
					return sched.Done, err
				}
				e.sent++
			}
		}
		// Lockstep rounds: the initiator sends the next request only after
		// the previous echo landed, so in-flight traffic stays bounded and
		// the message count is exact.
		if e.initiator && e.sent < t.rounds && e.sent == e.received {
			msg := fmt.Sprintf("msg-i%d-s%d-r%d", e.init, e.sid, e.sent+1)
			if err := st.ChnSend(e.init, e.sid, []byte(msg)); err != nil {
				return sched.Done, err
			}
			e.want = "echo:" + msg
			e.sent++
			progressed = true
		}
		if !t.done(e) {
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

// RunEcho runs plan on the fleet, one echo task per machine on a 1-VCPU
// scheduler seeded with the fleet seed plus the machine id, then checks
// the honest outcome: no refusals or drops, every session established on
// both ends and complete, and 2·sessions·Rounds messages opened.
func (f *Fleet) RunEcho(plan EchoPlan) (FleetStats, error) {
	ends, err := echoEnds(plan, len(f.CVMs))
	if err != nil {
		return FleetStats{}, err
	}
	tasks := make([]*echoTask, len(f.CVMs))
	scheds := make([]*sched.Scheduler, len(f.CVMs))
	for id, c := range f.CVMs {
		tasks[id] = &echoTask{c: c, self: id, ends: ends[id], rounds: plan.Rounds, localLogs: plan.LocalLogs}
		scheds[id] = sched.New(sched.Config{Machine: c.M, VCPUs: 1, Seed: f.seed + int64(id)})
		if err := scheds[id].Add(0, 1, tasks[id]); err != nil {
			return FleetStats{}, err
		}
	}
	stats, err := f.Run(scheds)
	if err != nil {
		return stats, err
	}
	var opened uint64
	for id, c := range f.CVMs {
		cs := c.CHN.Stats()
		if cs.Refused != 0 || cs.Dropped != 0 {
			return stats, fmt.Errorf("cvm: echo m%d refused=%d dropped=%d on the honest run", id, cs.Refused, cs.Dropped)
		}
		if want := uint64(len(ends[id])); cs.Established != want {
			return stats, fmt.Errorf("cvm: echo m%d established %d sessions, want %d", id, cs.Established, want)
		}
		for _, e := range ends[id] {
			if !tasks[id].done(e) {
				return stats, fmt.Errorf("cvm: echo m%d session (init %d, sid %d) incomplete: sent %d received %d",
					id, e.init, e.sid, e.sent, e.received)
			}
		}
		opened += cs.Received
	}
	if want := uint64(2 * len(plan.Sessions) * plan.Rounds); opened != want {
		return stats, fmt.Errorf("cvm: echo fleet opened %d data messages, want %d", opened, want)
	}
	return stats, nil
}

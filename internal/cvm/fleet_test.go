package cvm

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"veil/internal/core"
	"veil/internal/fabric"
	"veil/internal/sched"
	"veil/internal/services/chn"
	"veil/internal/snp"
)

// taskFunc adapts a function to the sched.Task interface.
type taskFunc func(vcpu int) (sched.Status, error)

func (f taskFunc) Step(vcpu int) (sched.Status, error) { return f(vcpu) }

func testFleetOptions(machines int, seed int64) FleetOptions {
	return FleetOptions{
		Machines: machines,
		Seed:     seed,
		Base:     Options{MemBytes: 32 << 20, VCPUs: 1, LogPages: 8},
		Link:     fabric.LinkModel{BaseLatency: 5_000, Jitter: 1_000},
	}
}

// runPingPong boots a 2-machine fleet and runs one attested echo session
// from machine 0 to machine 1 for the given rounds.
func runPingPong(t *testing.T, seed int64, rounds int) (*Fleet, FleetStats) {
	t.Helper()
	f, err := BootFleet(testFleetOptions(2, seed))
	if err != nil {
		t.Fatalf("BootFleet: %v", err)
	}
	stats, err := f.RunEcho(EchoPlan{Sessions: [][2]int{{0, 1}}, Rounds: rounds})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	return f, stats
}

func TestFleetAttestedChannelPingPong(t *testing.T) {
	const rounds = 3
	f, stats := runPingPong(t, 11, rounds)

	for id, c := range f.CVMs {
		st := c.CHN.Stats()
		if st.Received != rounds {
			t.Fatalf("machine %d received %d messages, want %d", id, st.Received, rounds)
		}
		if st.Established != 1 {
			t.Fatalf("machine %d established %d sessions, want 1", id, st.Established)
		}
		if st.Refused != 0 || st.Dropped != 0 {
			t.Fatalf("machine %d refused=%d dropped=%d on honest run", id, st.Refused, st.Dropped)
		}
	}
	// The retired counters op (6) gets the unknown-op refusal; the host
	// reads the counters through CHN.Stats.
	resp, err := f.CVMs[0].Stub.CallSrv(core.Request{Svc: core.SvcCHN, Op: 6})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != core.StatusError {
		t.Fatalf("VeilS-Channel op 6: status %d, want StatusError", resp.Status)
	}
	if stats.Fabric.Delivered == 0 {
		t.Fatal("no fabric deliveries recorded")
	}
	for _, m := range stats.Machines {
		if m.Cycles == 0 {
			t.Fatalf("machine %d ran zero cycles", m.ID)
		}
	}
	if stats.IdleJumps == 0 {
		t.Fatal("no idle rendezvous jumps — machines never actually waited on the fabric")
	}
}

// fleetFingerprint flattens everything observable about a run into one
// comparable string.
func fleetFingerprint(f *Fleet, stats FleetStats) string {
	s := fmt.Sprintf("steps=%d idle=%d fabric=%+v\n", stats.Steps, stats.IdleJumps, stats.Fabric)
	for _, m := range stats.Machines {
		s += fmt.Sprintf("m%d cycles=%d idle=%d sched=%+v\n", m.ID, m.Cycles, m.IdleCycles, m.Sched)
	}
	for id, c := range f.CVMs {
		s += fmt.Sprintf("m%d chn=%+v attr=%v\n", id, c.CHN.Stats(), c.M.Clock().AttributionSince(snp.Clock{}).Map())
	}
	return s
}

func TestFleetDeterministicAcrossRunsAndGOMAXPROCS(t *testing.T) {
	run := func() string {
		return fleetFingerprint(runPingPong(t, 23, 4))
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("same-seed fleet runs diverged:\n--- first\n%s--- second\n%s", first, second)
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	third := run()
	if first != third {
		t.Fatalf("fleet run diverged under GOMAXPROCS=1:\n--- first\n%s--- third\n%s", first, third)
	}
}

// Session ids follow each initiator's dial order: a machine's ends are its
// sessions in plan order, and a session's sid is its index among its
// initiator's sessions.
func TestEchoEndsFollowDialOrder(t *testing.T) {
	type end struct {
		init, peer int
		sid        uint32
		initiator  bool
	}
	for _, c := range []struct {
		name     string
		sessions [][2]int
		want     [][]end
	}{
		{"triangle", [][2]int{{0, 1}, {0, 2}, {1, 2}}, [][]end{
			{{0, 1, 0, true}, {0, 2, 1, true}},
			{{0, 0, 0, false}, {1, 2, 0, true}},
			{{0, 0, 1, false}, {1, 1, 0, false}},
		}},
		{"3-ring", [][2]int{{0, 1}, {1, 2}, {2, 0}}, [][]end{
			{{0, 1, 0, true}, {2, 2, 0, false}},
			{{0, 0, 0, false}, {1, 2, 0, true}},
			{{1, 1, 0, false}, {2, 0, 0, true}},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ends, err := echoEnds(EchoPlan{Sessions: c.sessions}, 3)
			if err != nil {
				t.Fatal(err)
			}
			for m, want := range c.want {
				var got []end
				for _, e := range ends[m] {
					got = append(got, end{e.init, e.peer, e.sid, e.initiator})
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("m%d ends = %v, want %v", m, got, want)
				}
			}
		})
	}
	if _, err := echoEnds(EchoPlan{Sessions: [][2]int{{1, 1}}}, 3); err == nil {
		t.Fatal("a session from a machine to itself was accepted")
	}
}

// An initiator whose echo comes back altered fails the run instead of
// counting the round.
func TestEchoRejectsWrongReply(t *testing.T) {
	f, err := BootFleet(testFleetOptions(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	ends, err := echoEnds(EchoPlan{Sessions: [][2]int{{0, 1}}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	initiator := &echoTask{c: f.CVMs[0], self: 0, ends: ends[0], rounds: 1}
	resp := f.CVMs[1]
	liar := taskFunc(func(int) (sched.Status, error) {
		for _, fr := range resp.DrainNetFrames() {
			if err := resp.Stub.ChnDeliver(fr); err != nil {
				return sched.Done, err
			}
		}
		if state, err := resp.Stub.ChnState(0, 0); err != nil || state != chn.StateEstablished {
			return sched.Blocked, err
		}
		if _, ok, err := resp.Stub.ChnRecv(0, 0); err != nil || !ok {
			return sched.Blocked, err
		}
		return sched.Done, resp.Stub.ChnSend(0, 0, []byte("echo:wrong"))
	})
	scheds := []*sched.Scheduler{
		sched.New(sched.Config{Machine: f.CVMs[0].M, VCPUs: 1, Seed: 1}),
		sched.New(sched.Config{Machine: f.CVMs[1].M, VCPUs: 1, Seed: 2}),
	}
	if err := scheds[0].Add(0, 1, initiator); err != nil {
		t.Fatal(err)
	}
	if err := scheds[1].Add(0, 1, liar); err != nil {
		t.Fatal(err)
	}
	_, err = f.Run(scheds)
	if err == nil || !strings.Contains(err.Error(), `"echo:wrong"`) {
		t.Fatalf("run with a wrong echo: err = %v, want the echo mismatch", err)
	}
	if e := ends[0][0]; e.received != 0 {
		t.Fatalf("initiator counted %d rounds from a wrong echo", e.received)
	}
}

func TestFleetSameSeedSameMeasurements(t *testing.T) {
	f1, err := BootFleet(testFleetOptions(3, 7))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := BootFleet(testFleetOptions(3, 7))
	if err != nil {
		t.Fatal(err)
	}
	for id := range f1.Directory {
		if f1.Directory[id] != f2.Directory[id] {
			t.Fatalf("machine %d measurement differs across same-seed boots", id)
		}
	}
	f3, err := BootFleet(testFleetOptions(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for id := range f1.Directory {
		if f1.Directory[id] == f3.Directory[id] {
			same++
		}
	}
	if same == len(f1.Directory) {
		t.Fatal("different fleet seeds produced identical measurements")
	}
}

func TestFleetStallDetected(t *testing.T) {
	f, err := BootFleet(testFleetOptions(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Two tasks that block immediately and forever: nothing in flight, so
	// the stepper must refuse rather than spin.
	blocker := taskFunc(func(vcpu int) (sched.Status, error) {
		return sched.Blocked, nil
	})
	scheds := []*sched.Scheduler{
		sched.New(sched.Config{Machine: f.CVMs[0].M, VCPUs: 1, Seed: 1}),
		sched.New(sched.Config{Machine: f.CVMs[1].M, VCPUs: 1, Seed: 2}),
	}
	for i, s := range scheds {
		if err := s.Add(0, 1, blocker); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	_, err = f.Run(scheds)
	if err == nil {
		t.Fatal("fleet of blocked machines did not stall out")
	}
}

// The echo task polls ChnState and ChnRecv on every step; on an
// established session with an empty queue both cost no allocation, and
// the machine's session view answers both without a domain switch: no
// VMGEXIT and no virtual cycle.
func TestChnPollAllocFree(t *testing.T) {
	f, _ := runPingPong(t, 13, 2)
	st, m := f.CVMs[0].Stub, f.CVMs[0].M
	for _, c := range []struct {
		name string
		poll func()
	}{
		{"ChnState", func() {
			if state, err := st.ChnState(0, 0); err != nil || state != chn.StateEstablished {
				t.Fatalf("ChnState = %d, %v; want established", state, err)
			}
		}},
		{"ChnRecv", func() {
			if msg, ok, err := st.ChnRecv(0, 0); err != nil || ok {
				t.Fatalf("ChnRecv = %q, %v, %v; want an empty queue", msg, ok, err)
			}
		}},
	} {
		c.poll() // warm the stub's buffers
		if allocs := testing.AllocsPerRun(100, c.poll); allocs != 0 {
			t.Errorf("%s allocates %.1f times per poll, want 0", c.name, allocs)
		}
		exits, cycles := m.Trace().VMGExits, m.Clock().Cycles()
		c.poll()
		if d := m.Trace().VMGExits - exits; d != 0 || m.Clock().Cycles() != cycles {
			t.Errorf("%s took %d VMGEXITs and %d cycles, want neither", c.name, d, m.Clock().Cycles()-cycles)
		}
	}
}

// One sealed message's whole trip allocates nothing in steady state: the
// sender's ChnSend seals straight into the service's response, the fabric
// copies the frame into its link slab, the receiver's NIC queue holds it
// until the drain, ChnDeliver decodes it in place, opens it into the
// service's response and copies the message into a recycled buffer of the
// session view's queue, and ChnRecv hands that buffer back. The
// fabric's slab and queue growth are amortized well below one allocation
// per message: AllocsPerRun's integer average absorbs them, so a longer
// run bounds them on their own.
func TestChnDataPathAllocFree(t *testing.T) {
	f, _ := runPingPong(t, 17, 2)
	a, b := f.CVMs[0], f.CVMs[1]
	msg := []byte("msg-i0-s0-r3: one sealed echo request")
	var got []byte
	trip := func() {
		if err := a.Stub.ChnSend(0, 0, msg); err != nil {
			t.Fatalf("ChnSend: %v", err)
		}
		at, ok := f.Fab.NextArrival(1)
		if !ok {
			t.Fatal("the data frame never reached the fabric")
		}
		for _, m := range f.Fab.Due(1, at) {
			b.PushNetFrame(m.Payload)
		}
		for _, fr := range b.DrainNetFrames() {
			if err := b.Stub.ChnDeliver(fr); err != nil {
				t.Fatalf("ChnDeliver: %v", err)
			}
		}
		var ok2 bool
		var err error
		if got, ok2, err = b.Stub.ChnRecv(0, 0); err != nil || !ok2 {
			t.Fatalf("ChnRecv = %v, %v; want the message", ok2, err)
		}
	}
	trip() // warm the stage, scratch and queue buffers
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %q, want %q", got, msg)
	}
	if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
		t.Errorf("one sealed message's trip allocates %.1f times, want 0", allocs)
	}
	// One 64-slot queue array per 64 frames and one slab per several
	// hundred: about 11 objects over 640 trips.
	const trips = 640
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		trip()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > trips/32 {
		t.Errorf("%d trips allocated %d objects, want at most %d", trips, n, trips/32)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("after the measured trips received %q, want %q", got, msg)
	}
}

// The stepper runs every machine on the caller's goroutine: a task sees
// exactly the goroutines that existed before Run.
func TestFleetRunSpawnsNoGoroutines(t *testing.T) {
	f, err := BootFleet(testFleetOptions(2, 9))
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	scheds := make([]*sched.Scheduler, 2)
	for i := range scheds {
		steps := 0
		scheds[i] = sched.New(sched.Config{Machine: f.CVMs[i].M, VCPUs: 1, Seed: int64(i)})
		task := taskFunc(func(int) (sched.Status, error) {
			seen = append(seen, runtime.NumGoroutine())
			if steps++; steps == 3 {
				return sched.Done, nil
			}
			return sched.Yield, nil
		})
		if err := scheds[i].Add(0, 1, task); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	if _, err := f.Run(scheds); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("tasks stepped %d times, want 6", len(seen))
	}
	for i, n := range seen {
		if n != before {
			t.Fatalf("step %d saw %d goroutines, want the %d that existed before Run", i, n, before)
		}
	}
}

// A task error stops the run with an error that wraps it and names the
// machine; the stats still hold every machine's final clock, and the
// fleet stays usable for the next run.
func TestFleetRunErrorNamesMachine(t *testing.T) {
	f, err := BootFleet(testFleetOptions(2, 17))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("task failed on purpose")
	scheds := make([]*sched.Scheduler, 2)
	for i := range scheds {
		id, steps := i, 0
		scheds[i] = sched.New(sched.Config{Machine: f.CVMs[i].M, VCPUs: 1, Seed: int64(i)})
		task := taskFunc(func(int) (sched.Status, error) {
			steps++
			switch {
			case id == 1 && steps == 3:
				return sched.Done, boom
			case steps == 5:
				return sched.Done, nil
			}
			return sched.Yield, nil
		})
		if err := scheds[i].Add(0, 1, task); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := f.Run(scheds)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "fleet machine 1") {
		t.Fatalf("Run err = %v, want the task error naming fleet machine 1", err)
	}
	if len(stats.Machines) != 2 {
		t.Fatalf("stats cover %d machines, want 2", len(stats.Machines))
	}
	for _, m := range stats.Machines {
		if want := f.CVMs[m.ID].M.Clock().Cycles(); m.Cycles != want {
			t.Fatalf("machine %d stats cycles %d, clock %d", m.ID, m.Cycles, want)
		}
	}
	if _, err := f.RunEcho(EchoPlan{Sessions: [][2]int{{0, 1}}, Rounds: 2}); err != nil {
		t.Fatalf("echo run after a failed run: %v", err)
	}
}

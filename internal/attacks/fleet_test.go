package attacks

import (
	"encoding/binary"
	"testing"

	"veil/internal/core"
	"veil/internal/fabric"
)

// rawChn is a plain VeilS-Channel round trip that bypasses the stub's
// session view: the reference the view is checked against.
func rawChn(t *testing.T, st *core.OSStub, op uint8, init int, sid uint32) core.Response {
	t.Helper()
	var key [8]byte
	binary.LittleEndian.PutUint32(key[0:], uint32(init))
	binary.LittleEndian.PutUint32(key[4:], sid)
	resp, err := st.CallSrv(core.Request{Svc: core.SvcCHN, Op: op, Payload: key[:]})
	if err != nil {
		t.Fatalf("raw op %d on (init %d, sid %d): %v", op, init, sid, err)
	}
	return resp
}

// A hostile fabric cannot desynchronise a machine's session view from its
// service: after duplicated handshake frames and replayed or reordered
// data frames, every session's ChnState equals a raw OpChnState, ChnRecv
// fails exactly on the sessions the service does not hold, and the
// messages the service opened are exactly those the OS received plus those
// still queued in the view — a refused frame queues nothing.
func TestFleetViewMatchesServiceUnderAttack(t *testing.T) {
	for _, c := range []struct {
		name   string
		tamper func(m fabric.Message) []fabric.Message
	}{
		{"duplicate every frame", func(m fabric.Message) []fabric.Message {
			cp := m
			cp.Payload = append([]byte(nil), m.Payload...)
			cp.Arrive = m.Arrive + 1
			return []fabric.Message{m, cp}
		}},
		{"swap arrival of successive frames", func() func(m fabric.Message) []fabric.Message {
			var held *fabric.Message
			return func(m fabric.Message) []fabric.Message {
				if held == nil {
					held = &m
					return nil
				}
				h := *held
				held = nil
				h.Arrive = m.Arrive + 1
				return []fabric.Message{m, h}
			}
		}()},
	} {
		t.Run(c.name, func(t *testing.T) {
			const dials = 2
			f, err := freshFleet(1)
			if err != nil {
				t.Fatal(err)
			}
			f.Fab.SetInterceptor(c.tamper)
			a, b, err := runFleetPair(f, dials, 3)
			if err != nil {
				t.Fatal(err)
			}
			if f.CVMs[0].CHN.Stats().Refused+f.CVMs[1].CHN.Stats().Refused == 0 {
				t.Fatal("the tampered fabric caused no refusal")
			}
			for id, p := range []*fleetPeer{a, b} {
				st, taken := p.st, uint64(p.received)
				for sid := uint32(0); sid < dials; sid++ {
					state, err := st.ChnState(0, sid)
					if err != nil {
						t.Fatalf("m%d ChnState(0, %d): %v", id, sid, err)
					}
					if raw := rawChn(t, st, core.OpChnState, 0, sid); len(raw.Payload) != 1 || raw.Payload[0] != state {
						t.Fatalf("m%d sid %d: view state %d, service %v", id, sid, state, raw.Payload)
					}
					for {
						_, ok, err := st.ChnRecv(0, sid)
						if (err != nil) != (state == core.ChnStateNone) {
							t.Fatalf("m%d sid %d: ChnRecv err %v on a session in state %d", id, sid, err, state)
						}
						if !ok {
							break
						}
						taken++
					}
				}
				if got := p.c.CHN.Stats().Received; got != taken {
					t.Fatalf("m%d: service opened %d messages, the OS received or still queues %d", id, got, taken)
				}
			}
		})
	}
}

package fabric

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes struct{ b []byte }

func (r *fuzzBytes) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// endpoint maps a byte onto -1..n: every machine id plus one out-of-range
// id on each side.
func (r *fuzzBytes) endpoint(n int) int { return int(r.next())%(n+2) - 1 }

// fuzzFrame is a frame as the reference model expects it back: the
// Message the interceptor let through and a copy of its payload bytes.
type fuzzFrame struct {
	m    Message
	want []byte
}

// fuzzDesc names a frame by its fields, leaving the payload out.
func fuzzDesc(m Message) string {
	return fmt.Sprintf("{%d->%d seq %d sent %d arrive %d, %d bytes}", m.Src, m.Dst, m.Seq, m.Sent, m.Arrive, len(m.Payload))
}

// Interceptor behaviours FuzzFabric switches between.
const (
	hostNone      = iota // no interceptor installed
	hostPass             // return the frame unchanged
	hostSwallow          // return nothing
	hostDuplicate        // the frame and a copy arriving later
	hostRewrite          // flip a payload byte in place and move the arrival
	hostForge            // a copy with forged Src and Dst, plus the original
	hostExtend           // append to the payload (it must be clipped)
	hostModes
)

// FuzzFabric drives Send, Due and NextArrival from arbitrary bytes while a
// hostile interceptor swallows, duplicates, rewrites and forges frames,
// including forged Src and Dst outside the fleet. A shadow fabric with the
// same seed shows the harness what the link model stamped on each send, and
// a reference model of the destination queues predicts every answer.
// Whatever the input: nothing panics; every Due batch is the model's
// (Arrive, Seq)-ordered prefix; NextArrival is the model queue's head;
// every delivered payload, and every batch's messages, keep their bytes to
// the end of the input, across slab rollovers and later sends; the
// counters add up against what the harness saw; and after every operation
// the fabric's own counters account for every frame.
func FuzzFabric(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 5, 0, 2, 1, 9, 3, 200, 2, 1, 4, 1})
	f.Add([]byte{1, 4, 3, 0, 1, 0, 40, 0, 2, 1, 80, 3, 255, 1, 4, 5, 2, 9, 0, 0, 3, 255, 1})
	f.Add([]byte{2, 4, 5, 0, 1, 2, 10, 130, 0, 1, 0, 20, 4, 2, 3, 255, 3, 255, 3, 255, 2})
	f.Add([]byte{3, 1, 0, 2, 70, 1, 1, 0, 65, 1, 2, 0, 66, 3, 255, 3, 255, 2, 0})
	f.Add([]byte{4, 4, 6, 0, 0, 1, 3, 0, 0, 1, 4, 4, 3, 0, 2, 0, 5, 3, 255, 3, 255})
	f.Add([]byte{5, 0, 4, 2, 5, 0, 1, 0, 8, 0, 0, 2, 5, 3, 90, 2, 0})

	f.Fuzz(func(t *testing.T, in []byte) {
		const n = 3
		r := &fuzzBytes{b: in}
		cfg := Config{
			Machines: n,
			Seed:     int64(r.next()),
			Default:  LinkModel{BaseLatency: 1_000, Jitter: 200, DropPerMil: 100, ReorderPerMil: 150},
		}
		fab, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shadow, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The shadow swallows every frame it stamps, after showing it.
		var stamped Message
		var stampedOK bool
		shadow.SetInterceptor(func(m Message) []Message {
			stamped, stampedOK = m, true
			return nil
		})

		mode := hostNone
		var intercepted bool
		var out []Message
		hostile := func(m Message) []Message {
			intercepted = true
			if !stampedOK || m.Src != stamped.Src || m.Dst != stamped.Dst || m.Seq != stamped.Seq ||
				m.Sent != stamped.Sent || m.Arrive != stamped.Arrive || !bytes.Equal(m.Payload, stamped.Payload) {
				t.Fatalf("interceptor got %s, the link model stamped %s", fuzzDesc(m), fuzzDesc(stamped))
			}
			switch mode {
			case hostPass:
				out = []Message{m}
			case hostSwallow:
				out = nil
			case hostDuplicate:
				cp := m
				cp.Arrive += uint64(r.next())
				out = []Message{m, cp}
			case hostRewrite:
				if len(m.Payload) > 0 {
					m.Payload[int(r.next())%len(m.Payload)] ^= 0x5a
				}
				m.Arrive = m.Arrive - m.Arrive%1_000 + uint64(r.next())*8
				out = []Message{m}
			case hostForge:
				forged := m
				forged.Src = int(int8(r.next()))
				forged.Dst = r.endpoint(n)
				forged.Seq = uint64(r.next())
				forged.Sent = m.Arrive + 1 // a wire time that would be negative
				forged.Payload = []byte("forged")
				out = []Message{forged, m}
			case hostExtend:
				m.Payload = append(m.Payload, 0xee)
				out = []Message{m}
			}
			return out
		}

		queues := make([][]fuzzFrame, n)
		enqueue := func(m Message) {
			if m.Dst < 0 || m.Dst >= n {
				return
			}
			q := queues[m.Dst]
			i := len(q)
			for i > 0 && (q[i-1].m.Arrive > m.Arrive || q[i-1].m.Arrive == m.Arrive && q[i-1].m.Seq > m.Seq) {
				i--
			}
			q = append(q, fuzzFrame{})
			copy(q[i+1:], q[i:])
			q[i] = fuzzFrame{m: m, want: append([]byte(nil), m.Payload...)}
			queues[m.Dst] = q
		}

		var held [][]Message // every Due batch, as returned
		var heldWant [][]fuzzFrame
		var sent, dropped, injected, delivered, linkDelivered, linkLat uint64
		// Conservation, from the fabric's own counters: every frame the link
		// model kept, plus the host's extra frames, is delivered, swallowed
		// by the host, discarded for a Dst outside the fleet, or still queued.
		conserved := func() {
			st := fab.Stats()
			var queued uint64
			for _, q := range fab.queues {
				queued += uint64(len(q))
			}
			if kept := st.Sent - st.Dropped; kept+st.Injected != st.Delivered+st.Swallowed+st.Discarded+queued {
				t.Fatalf("%d kept + %d injected != %d delivered + %d swallowed + %d discarded + %d queued",
					kept, st.Injected, st.Delivered, st.Swallowed, st.Discarded, queued)
			}
		}
		checkBatch := func(dst int, now uint64) {
			batch := fab.Due(dst, now)
			if dst < 0 || dst >= n {
				if batch != nil {
					t.Fatalf("Due(%d) outside the fleet returned %d frames", dst, len(batch))
				}
				return
			}
			q := queues[dst]
			cut := 0
			for cut < len(q) && q[cut].m.Arrive <= now {
				cut++
			}
			if len(batch) != cut {
				t.Fatalf("Due(%d, %d) returned %d frames, the model %d", dst, now, len(batch), cut)
			}
			for i, m := range batch {
				w := q[i]
				if m.Src != w.m.Src || m.Dst != w.m.Dst || m.Seq != w.m.Seq || m.Sent != w.m.Sent || m.Arrive != w.m.Arrive {
					t.Fatalf("Due(%d, %d)[%d] = %s, the model expects %s", dst, now, i, fuzzDesc(m), fuzzDesc(w.m))
				}
				if !bytes.Equal(m.Payload, w.want) {
					t.Fatalf("Due(%d, %d)[%d] payload %x, sent %x", dst, now, i, m.Payload, w.want)
				}
				if m.Src >= 0 && m.Src < n && m.Src != dst {
					linkDelivered++
					if m.Arrive >= m.Sent {
						linkLat++
					}
				}
			}
			if cut > 0 {
				held = append(held, batch)
				heldWant = append(heldWant, append([]fuzzFrame(nil), q[:cut]...))
			}
			queues[dst] = q[cut:]
			delivered += uint64(cut)
		}

		var now uint64
		budget := 512 << 10 // payload bytes one input may send
		for ops := 0; len(r.b) > 0 && ops < 128; ops++ {
			switch r.next() % 6 {
			case 0, 1: // send
				src, dst := r.endpoint(n), r.endpoint(n)
				size := int(r.next())
				if size >= 0xc0 && budget > 0 {
					// A large frame: some fill slabs, some exceed one.
					size = int(r.next()) % 80 << 10
				}
				size = min(size, max(budget, 0))
				budget -= size
				p := make([]byte, size)
				for i := range p {
					p[i] = byte(int(sent)*31 + i)
				}
				stampedOK, intercepted, out = false, false, nil
				errS := shadow.Send(src, dst, p, now)
				errF := fab.Send(src, dst, p, now)
				valid := src >= 0 && src < n && dst >= 0 && dst < n && src != dst
				if (errF == nil) != valid || (errS == nil) != valid {
					t.Fatalf("Send(%d, %d): err %v (shadow %v), valid %v", src, dst, errF, errS, valid)
				}
				if !valid {
					continue
				}
				sent++
				if !stampedOK {
					dropped++
					if intercepted {
						t.Fatal("the interceptor saw a frame the link model dropped")
					}
					continue
				}
				if mode == hostNone {
					if intercepted {
						t.Fatal("a removed interceptor still ran")
					}
					out = []Message{stamped}
				} else if !intercepted {
					t.Fatal("the interceptor never saw a frame the link model kept")
				}
				if len(out) > 1 {
					injected += uint64(len(out) - 1)
				}
				for _, m := range out {
					enqueue(m)
				}
			case 2: // deliver
				now += uint64(r.next()) * 40
				checkBatch(r.endpoint(n), now)
			case 3: // next arrival
				dst := r.endpoint(n)
				at, ok := fab.NextArrival(dst)
				wantOK := dst >= 0 && dst < n && len(queues[dst]) > 0
				if ok != wantOK || ok && at != queues[dst][0].m.Arrive {
					t.Fatalf("NextArrival(%d) = %d, %v; the model expects a head: %v", dst, at, ok, wantOK)
				}
			case 4: // switch the host's behaviour
				mode = int(r.next()) % hostModes
				if mode == hostNone {
					fab.SetInterceptor(nil)
				} else {
					fab.SetInterceptor(hostile)
				}
			case 5: // let time pass
				now += uint64(r.next()) * 100
			}
			conserved()
		}
		for dst := 0; dst < n; dst++ {
			checkBatch(dst, math.MaxUint64)
			if _, ok := fab.NextArrival(dst); ok {
				t.Fatalf("machine %d still has an arrival after the final drain", dst)
			}
		}

		// Every batch handed out still reads as it did when delivered.
		for b, batch := range held {
			for i, m := range batch {
				w := heldWant[b][i]
				if m.Seq != w.m.Seq || m.Arrive != w.m.Arrive || !bytes.Equal(m.Payload, w.want) {
					t.Fatalf("batch %d frame %d changed after delivery: %s %x, delivered as %s %x", b, i, fuzzDesc(m), m.Payload, fuzzDesc(w.m), w.want)
				}
			}
		}

		st := fab.Stats()
		if st.Sent != sent || st.Dropped != dropped || st.Injected != injected || st.Delivered != delivered ||
			st.Reordered != shadow.Stats().Reordered {
			t.Fatalf("stats %+v; the harness sent %d, saw %d dropped, %d injected, %d delivered, the shadow %d reordered",
				st, sent, dropped, injected, delivered, shadow.Stats().Reordered)
		}
		conserved()
		var links Stats
		var lat uint64
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				ls := fab.LinkStats(s, d)
				links.Sent += ls.Sent
				links.Dropped += ls.Dropped
				links.Reordered += ls.Reordered
				links.Delivered += ls.Delivered
				h := fab.LinkLatency(s, d)
				lat += h.Count()
			}
		}
		if links.Sent != st.Sent || links.Dropped != st.Dropped || links.Reordered != st.Reordered ||
			links.Delivered != linkDelivered || lat != linkLat {
			t.Fatalf("per-link sums %+v (latency samples %d); fabric %+v, %d delivered on real links (%d timed)",
				links, lat, st, linkDelivered, linkLat)
		}
	})
}

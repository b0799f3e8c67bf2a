package fabric

import (
	"bytes"
	"fmt"
	"testing"
)

func mustNew(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestDeliveryOrderedByArrivalThenSeq(t *testing.T) {
	f := mustNew(t, Config{Machines: 3, Seed: 1, Default: LinkModel{BaseLatency: 100}})
	// Two frames from different sources landing at the same arrival cycle:
	// Seq (global send order) breaks the tie.
	if err := f.Send(1, 0, []byte("first"), 50); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(2, 0, []byte("second"), 50); err != nil {
		t.Fatal(err)
	}
	// A later send that arrives earlier must still come out first.
	if err := f.Send(1, 0, []byte("early"), 0); err != nil {
		t.Fatal(err)
	}
	if got := f.Pending(0); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	if ar, ok := f.NextArrival(0); !ok || ar != 100 {
		t.Fatalf("NextArrival = %d,%v, want 100,true", ar, ok)
	}
	if due := f.Due(0, 99); due != nil {
		t.Fatalf("Due before arrival delivered %d frames", len(due))
	}
	due := f.Due(0, 150)
	if len(due) != 3 {
		t.Fatalf("Due = %d frames, want 3", len(due))
	}
	want := []string{"early", "first", "second"}
	for i, m := range due {
		if string(m.Payload) != want[i] {
			t.Fatalf("delivery[%d] = %q, want %q", i, m.Payload, want[i])
		}
	}
	if f.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", f.InFlight())
	}
	st := f.Stats()
	if st.Sent != 3 || st.Delivered != 3 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPayloadCopiedOnSend(t *testing.T) {
	f := mustNew(t, Config{Machines: 2, Seed: 1, Default: LinkModel{BaseLatency: 1}})
	buf := []byte("original")
	if err := f.Send(0, 1, buf, 0); err != nil {
		t.Fatal(err)
	}
	copy(buf, "scrambld")
	due := f.Due(1, 10)
	if len(due) != 1 || string(due[0].Payload) != "original" {
		t.Fatalf("payload aliased sender buffer: %q", due[0].Payload)
	}
}

// Payloads share their link's slab. Across slab rollovers, a payload
// larger than a slab and appends by whoever holds a payload, every
// delivered payload keeps exactly the bytes that were sent.
func TestPayloadsSurviveSlabRollover(t *testing.T) {
	f := mustNew(t, Config{Machines: 2, Seed: 1, Default: LinkModel{BaseLatency: 1}})
	var sent, got [][]byte
	for i := 0; i < 3*slabSize/1000+2; i++ {
		n := 1000
		if i == 70 {
			n = slabSize + 1
		}
		p := bytes.Repeat([]byte{byte(i)}, n)
		if err := f.Send(0, 1, p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, p)
		for _, m := range f.Due(1, uint64(i)+1) {
			got = append(got, m.Payload)
		}
	}
	if len(got) != len(sent) {
		t.Fatalf("delivered %d payloads, want %d", len(got), len(sent))
	}
	for _, p := range got {
		_ = append(p, 0xEE)
	}
	for i := range sent {
		if !bytes.Equal(got[i], sent[i]) {
			t.Fatalf("payload %d changed after later sends", i)
		}
	}
}

// A batch returned by Due shares the queue's array; later sends, injects
// (one landing at the queue's front) and pops must leave it unchanged, and
// appending to it must not reach the queue.
func TestDueBatchStable(t *testing.T) {
	f := mustNew(t, Config{Machines: 2, Seed: 1, Default: LinkModel{BaseLatency: 10}})
	for i, at := range []uint64{0, 5, 20, 30} {
		if err := f.Send(0, 1, []byte{byte('a' + i)}, at); err != nil {
			t.Fatal(err)
		}
	}
	batch := f.Due(1, 15)
	if len(batch) != 2 {
		t.Fatalf("Due = %d frames, want 2", len(batch))
	}
	want := fmt.Sprint(batch)
	_ = append(batch, Message{Dst: 1, Payload: []byte("appended")})
	f.Inject(Message{Src: 0, Dst: 1, Payload: []byte("front"), Arrive: 16})
	for at := uint64(0); at < 4; at++ {
		if err := f.Send(0, 1, []byte("late"), 40+at); err != nil {
			t.Fatal(err)
		}
	}
	next := f.Due(1, 35)
	if len(next) != 2 || string(next[0].Payload) != "front" {
		t.Fatalf("second Due = %v, want front, c", next)
	}
	f.Due(1, 1<<62)
	if got := fmt.Sprint(batch); got != want {
		t.Fatalf("popped batch changed under later traffic:\n got %s\nwant %s", got, want)
	}
}

func TestSendValidation(t *testing.T) {
	f := mustNew(t, Config{Machines: 2, Seed: 1})
	if err := f.Send(0, 0, nil, 0); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := f.Send(0, 2, nil, 0); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	if err := f.Send(-1, 0, nil, 0); err == nil {
		t.Fatal("out-of-range src accepted")
	}
	if _, err := New(Config{Machines: 0}); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

// trafficTrace runs a fixed send schedule against a fabric and returns a
// textual log of every delivery — the determinism fingerprint.
func trafficTrace(f *Fabric) string {
	var log bytes.Buffer
	for step := uint64(0); step < 200; step++ {
		src := int(step) % f.Machines()
		dst := (src + 1 + int(step)%(f.Machines()-1)) % f.Machines()
		payload := []byte(fmt.Sprintf("m%d", step))
		if err := f.Send(src, dst, payload, step*7); err != nil {
			fmt.Fprintf(&log, "err %v\n", err)
		}
		for d := 0; d < f.Machines(); d++ {
			for _, m := range f.Due(d, step*7) {
				fmt.Fprintf(&log, "%d<-%d seq=%d sent=%d arrive=%d %s\n",
					m.Dst, m.Src, m.Seq, m.Sent, m.Arrive, m.Payload)
			}
		}
	}
	st := f.Stats()
	fmt.Fprintf(&log, "stats %+v inflight=%d\n", st, f.InFlight())
	return log.String()
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := Config{
		Machines: 4,
		Seed:     42,
		Default:  LinkModel{BaseLatency: 30, Jitter: 20, DropPerMil: 100, ReorderPerMil: 150},
	}
	a := trafficTrace(mustNew(t, cfg))
	b := trafficTrace(mustNew(t, cfg))
	if a != b {
		t.Fatal("same seed, same schedule, different traffic traces")
	}
	cfg.Seed = 43
	c := trafficTrace(mustNew(t, cfg))
	if a == c {
		t.Fatal("different seeds produced identical jittery traces")
	}
}

func TestDropAndReorderModels(t *testing.T) {
	f := mustNew(t, Config{
		Machines: 2,
		Seed:     7,
		Default:  LinkModel{BaseLatency: 10, DropPerMil: 500, ReorderPerMil: 250},
	})
	const sends = 2000
	for i := 0; i < sends; i++ {
		if err := f.Send(0, 1, []byte{byte(i)}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Sent != sends {
		t.Fatalf("Sent = %d", st.Sent)
	}
	// ~50% drop: allow a generous band, the point is the model engages.
	if st.Dropped < sends/3 || st.Dropped > 2*sends/3 {
		t.Fatalf("Dropped = %d of %d, outside [1/3, 2/3] band", st.Dropped, sends)
	}
	if st.Reordered == 0 {
		t.Fatal("reorder model never engaged")
	}
	if uint64(f.Pending(1))+st.Dropped != sends {
		t.Fatalf("pending %d + dropped %d != sent %d", f.Pending(1), st.Dropped, sends)
	}
	// Drain everything and check delivery respects (Arrive, Seq) order.
	due := f.Due(1, 1<<62)
	var lastArrive, lastSeq uint64
	for i, m := range due {
		if i > 0 && (m.Arrive < lastArrive || (m.Arrive == lastArrive && m.Seq < lastSeq)) {
			t.Fatalf("delivery %d out of (Arrive, Seq) order", i)
		}
		lastArrive, lastSeq = m.Arrive, m.Seq
	}
}

func TestInterceptorSwallowRewriteDuplicate(t *testing.T) {
	f := mustNew(t, Config{Machines: 2, Seed: 1, Default: LinkModel{BaseLatency: 5}})

	// Swallow: host drops the frame silently.
	f.SetInterceptor(func(m Message) []Message { return nil })
	if err := f.Send(0, 1, []byte("gone"), 0); err != nil {
		t.Fatal(err)
	}
	if f.Pending(1) != 0 || f.Stats().Swallowed != 1 {
		t.Fatalf("swallowed frame: %d enqueued, Swallowed = %d, want 0 and 1", f.Pending(1), f.Stats().Swallowed)
	}

	// Misaddress: a frame sent outside the fleet is discarded, and counted.
	f.SetInterceptor(func(m Message) []Message { m.Dst = 7; return []Message{m} })
	if err := f.Send(0, 1, []byte("astray"), 0); err != nil {
		t.Fatal(err)
	}
	if f.Pending(1) != 0 || f.Stats().Discarded != 1 {
		t.Fatalf("misaddressed frame: %d enqueued, Discarded = %d, want 0 and 1", f.Pending(1), f.Stats().Discarded)
	}

	// Rewrite + duplicate: host tampers and replays in one step.
	f.SetInterceptor(func(m Message) []Message {
		evil := m
		evil.Payload = append([]byte(nil), m.Payload...)
		evil.Payload[0] ^= 0xff
		replay := m
		replay.Arrive += 100
		return []Message{evil, replay}
	})
	if err := f.Send(0, 1, []byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	due := f.Due(1, 1000)
	if len(due) != 2 {
		t.Fatalf("interceptor fan-out delivered %d frames, want 2", len(due))
	}
	if due[0].Payload[0] != 'd'^0xff || string(due[1].Payload) != "data" {
		t.Fatalf("unexpected tampered deliveries: %q %q", due[0].Payload, due[1].Payload)
	}
	if f.Stats().Injected != 1 {
		t.Fatalf("Injected = %d, want 1", f.Stats().Injected)
	}

	// Inject: out-of-thin-air forgery.
	f.SetInterceptor(nil)
	f.Inject(Message{Src: 0, Dst: 1, Payload: []byte("forged"), Arrive: 1})
	if f.Pending(1) != 1 {
		t.Fatal("injected frame not enqueued")
	}
}

func TestPerLinkStatsAndAuxSources(t *testing.T) {
	f := mustNew(t, Config{Machines: 3, Seed: 1, Default: LinkModel{BaseLatency: 100}})

	// Aux source names are fixed by topology alone: a fresh fabric with no
	// traffic already exports the full deterministic name set.
	names, values := f.CountersFor(0)()
	wantNames := []string{
		"fabric-link-0-1-sent", "fabric-link-0-1-delivered", "fabric-link-0-1-dropped", "fabric-link-0-1-reordered",
		"fabric-link-0-2-sent", "fabric-link-0-2-delivered", "fabric-link-0-2-dropped", "fabric-link-0-2-reordered",
	}
	if fmt.Sprint(names) != fmt.Sprint(wantNames) {
		t.Fatalf("CountersFor(0) names = %v, want %v", names, wantNames)
	}
	for i, v := range values {
		if v != 0 {
			t.Fatalf("fresh fabric counter %s = %d", names[i], v)
		}
	}
	gnames, _ := f.GaugesFor(1)()
	wantG := []string{"fabric-link-0-1-lat-p50", "fabric-link-0-1-lat-p99", "fabric-link-2-1-lat-p50", "fabric-link-2-1-lat-p99"}
	if fmt.Sprint(gnames) != fmt.Sprint(wantG) {
		t.Fatalf("GaugesFor(1) names = %v, want %v", gnames, wantG)
	}

	// Traffic lands on the right directed link, and the per-link view sums
	// to the aggregate.
	for _, send := range []struct{ src, dst int }{{0, 1}, {0, 1}, {0, 2}, {2, 1}} {
		if err := f.Send(send.src, send.dst, []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	f.Due(1, 1_000)
	f.Due(2, 1_000)
	if st := f.LinkStats(0, 1); st.Sent != 2 || st.Delivered != 2 {
		t.Fatalf("link 0->1 stats = %+v", st)
	}
	if st := f.LinkStats(0, 2); st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("link 0->2 stats = %+v", st)
	}
	var sent, delivered uint64
	for s := 0; s < 3; s++ {
		for d := 0; d < 3; d++ {
			st := f.LinkStats(s, d)
			sent += st.Sent
			delivered += st.Delivered
		}
	}
	if agg := f.Stats(); sent != agg.Sent || delivered != agg.Delivered {
		t.Fatalf("per-link sums (%d, %d) != aggregate (%d, %d)", sent, delivered, agg.Sent, agg.Delivered)
	}

	// Wire latency is observed at delivery: zero-jitter links record the
	// base latency exactly.
	h := f.LinkLatency(0, 1)
	if h.Count() != 2 || h.Sum() != 200 {
		t.Fatalf("link 0->1 latency count=%d sum=%d, want 2/200", h.Count(), h.Sum())
	}

	// A forged-source injection must not corrupt any link's accounting.
	f.Inject(Message{Src: -5, Dst: 1, Payload: []byte("forged"), Arrive: 2_000})
	f.Due(1, 3_000)
	for s := 0; s < 3; s++ {
		if st := f.LinkStats(s, 1); st.Delivered+st.Sent != map[int]uint64{0: 4, 1: 0, 2: 2}[s] {
			t.Fatalf("injected frame leaked into link %d->1 stats: %+v", s, st)
		}
	}
}

// Inject places an arbitrary frame directly on a destination queue: the
// host forging traffic without any guest having sent it.
func (f *Fabric) Inject(m Message) {
	f.stats.Injected++
	f.enqueue(m)
}

// Pending returns how many frames are queued for dst.
func (f *Fabric) Pending(dst int) int {
	if dst < 0 || dst >= f.n {
		return 0
	}
	return len(f.queues[dst])
}

// InFlight returns the total queued frame count across all destinations.
func (f *Fabric) InFlight() int {
	total := 0
	for _, q := range f.queues {
		total += len(q)
	}
	return total
}

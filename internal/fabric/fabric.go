// Package fabric is the simulated inter-CVM message network: the untrusted
// transport that connects the machines of a fleet. It is the fleet analogue
// of the hypervisor — wholly host-controlled, able to delay, drop, reorder,
// duplicate or rewrite every frame — and, exactly like the hypervisor, it
// is modelled deterministically so that hostile behaviour is reproducible
// from a seed.
//
// Time is virtual: a frame sent at the sender's virtual cycle S over a link
// with latency L becomes deliverable once the *receiver's* clock reaches
// S+L. Nothing here touches the wall clock or spawns goroutines; the fleet
// stepper (internal/cvm) owns the rendezvous, asking each destination for
// its due frames as its clock domain advances. Per-link latency jitter,
// drop and reorder decisions come from per-link seeded generators, so a
// fleet run is byte-deterministic for a given seed regardless of host
// scheduling.
//
// Frames carry opaque payloads. Confidentiality and integrity are not this
// package's business: VeilS-Channel (internal/services/chn) seals every
// cross-CVM message with keys bound into attestation reports, so the
// fabric — like the real datacentre network — only ever carries ciphertext
// it cannot forge.
package fabric

import (
	"fmt"
	"math/rand"
	"sort"

	"veil/internal/obs"
)

// Message is one frame in flight (or delivered). Seq is the global send
// order — the deterministic tiebreak for frames arriving at the same
// virtual cycle.
type Message struct {
	Src, Dst int
	Payload  []byte
	Seq      uint64
	// Sent is the sender's virtual clock at Send; Arrive is the receiver
	// virtual cycle at which the frame becomes deliverable.
	Sent   uint64
	Arrive uint64
}

// LinkModel is the behaviour of one directed link.
type LinkModel struct {
	// BaseLatency is the fixed per-frame latency in virtual cycles.
	// Jitter, when non-zero, adds a uniform [0, Jitter] extra from the
	// link's seeded generator.
	BaseLatency uint64
	Jitter      uint64
	// DropPerMil is the per-frame drop probability in thousandths.
	DropPerMil int
	// ReorderPerMil is the per-frame probability (in thousandths) that
	// the frame is penalized with extra latency sized to land it behind
	// its successor — the model's stand-in for a queue swap.
	ReorderPerMil int
}

// reorderPenalty is the extra latency a reordered frame suffers: enough to
// land behind a successor sent immediately after it.
func (l LinkModel) reorderPenalty() uint64 { return 2*(l.BaseLatency+l.Jitter) + 1 }

// Config assembles a Fabric.
type Config struct {
	// Machines is the number of endpoints (ids 0..Machines-1).
	Machines int
	// Seed derives every per-link generator.
	Seed int64
	// Default is the model for links without an override.
	Default LinkModel
	// Links, when non-nil, overrides the model per directed (src, dst)
	// pair.
	Links map[[2]int]LinkModel
}

// Stats counts fabric-level outcomes.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64 // seeded link-model drops
	Reordered uint64 // seeded reorder penalties applied
	Injected  uint64 // frames added by the host interceptor beyond 1:1
	Swallowed uint64 // frames the host interceptor returned none for
	Discarded uint64 // frames addressed outside the fleet, never queued
}

type link struct {
	model LinkModel
	rng   *rand.Rand
	// stats and lat are the per-directed-link view of the aggregate
	// counters: what the fleet exporters surface with link labels.
	// Delivered and lat are counted at Due time, everything else at Send.
	stats Stats
	lat   obs.Histogram
	// slab is the link's append-only payload arena: Send copies each
	// payload to its end, and a full slab is replaced, never rewritten, so
	// a payload stays valid for as long as anything holds it.
	slab []byte
}

// slabSize is the size of one payload slab. A payload larger than a slab
// gets its own buffer.
const slabSize = 64 << 10

// minQueueCap is the least capacity a destination queue grows to. Due
// slides a queue forward through its array, so without headroom every
// enqueue after a pop would reallocate.
const minQueueCap = 64

// keep copies payload into the link's slab and returns the copy, clipped
// to its own length so that an append by any holder cannot reach the
// next payload.
func (l *link) keep(payload []byte) []byte {
	n := len(payload)
	if n == 0 {
		return nil
	}
	if n > slabSize {
		return append([]byte(nil), payload...)
	}
	if cap(l.slab)-len(l.slab) < n {
		l.slab = make([]byte, 0, slabSize)
	}
	at := len(l.slab)
	l.slab = append(l.slab, payload...)
	return l.slab[at : at+n : at+n]
}

// Fabric is the fleet's message network. Not safe for concurrent use: the
// fleet stepper serializes all access (one clock domain runs at a time),
// which is also what keeps the seeded draws deterministic.
type Fabric struct {
	n      int
	links  [][]link
	queues [][]Message // per destination, sorted by (Arrive, Seq)
	seq    uint64
	stats  Stats

	// intercept, when set, is the hostile host: it sees every frame after
	// the link model has stamped it and returns the frames actually
	// enqueued — none (swallow), the original, a rewrite, a duplicate, or
	// an out-of-thin-air injection. Attack suites use it; honest fleets
	// leave it nil.
	intercept func(Message) []Message
}

// New creates a fabric with Machines endpoints and per-link seeded models.
func New(cfg Config) (*Fabric, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("fabric: need at least 1 machine, got %d", cfg.Machines)
	}
	f := &Fabric{
		n:      cfg.Machines,
		links:  make([][]link, cfg.Machines),
		queues: make([][]Message, cfg.Machines),
	}
	for s := 0; s < cfg.Machines; s++ {
		f.links[s] = make([]link, cfg.Machines)
		for d := 0; d < cfg.Machines; d++ {
			model := cfg.Default
			if cfg.Links != nil {
				if m, ok := cfg.Links[[2]int{s, d}]; ok {
					model = m
				}
			}
			// One generator per directed link, derived from the fleet
			// seed: link behaviour is independent of traffic on other
			// links, so adding a flow never perturbs an existing one.
			seed := cfg.Seed*1_000_003 + int64(s)*65_537 + int64(d)
			f.links[s][d] = link{model: model, rng: rand.New(rand.NewSource(seed))}
		}
	}
	return f, nil
}

// Machines returns the endpoint count.
func (f *Fabric) Machines() int { return f.n }

// SetInterceptor installs (or, with nil, removes) the hostile-host hook.
func (f *Fabric) SetInterceptor(fn func(Message) []Message) { f.intercept = fn }

// Send puts one frame on the wire. now is the sender's virtual clock; the
// frame becomes deliverable once the destination's clock reaches
// now+latency. The payload is copied — the sender may reuse its buffer —
// into the link's append-only slab: no slab byte is written twice, so a
// delivered payload stays valid and unchanged for as long as a receiver
// or an interceptor holds it.
func (f *Fabric) Send(src, dst int, payload []byte, now uint64) error {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return fmt.Errorf("fabric: send %d->%d outside fleet of %d", src, dst, f.n)
	}
	if src == dst {
		return fmt.Errorf("fabric: machine %d sending to itself", src)
	}
	l := &f.links[src][dst]
	f.stats.Sent++
	l.stats.Sent++
	lat := l.model.BaseLatency
	if l.model.Jitter > 0 {
		lat += uint64(l.rng.Int63n(int64(l.model.Jitter) + 1))
	}
	if l.model.DropPerMil > 0 && l.rng.Intn(1000) < l.model.DropPerMil {
		f.stats.Dropped++
		l.stats.Dropped++
		return nil
	}
	if l.model.ReorderPerMil > 0 && l.rng.Intn(1000) < l.model.ReorderPerMil {
		lat += l.model.reorderPenalty()
		f.stats.Reordered++
		l.stats.Reordered++
	}
	m := Message{
		Src: src, Dst: dst,
		Payload: l.keep(payload),
		Seq:     f.seq,
		Sent:    now,
		Arrive:  now + lat,
	}
	f.seq++
	if f.intercept != nil {
		out := f.intercept(m)
		switch {
		case len(out) == 0:
			f.stats.Swallowed++
		case len(out) > 1:
			f.stats.Injected += uint64(len(out) - 1)
		}
		for _, im := range out {
			f.enqueue(im)
		}
		return nil
	}
	f.enqueue(m)
	return nil
}

func (f *Fabric) enqueue(m Message) {
	if m.Dst < 0 || m.Dst >= f.n {
		f.stats.Discarded++
		return
	}
	q := f.queues[m.Dst]
	// Insert keeping (Arrive, Seq) order: delivery order is a pure
	// function of the frames, never of host-side insertion timing.
	i := sort.Search(len(q), func(i int) bool {
		if q[i].Arrive != m.Arrive {
			return q[i].Arrive > m.Arrive
		}
		return q[i].Seq > m.Seq
	})
	if len(q) == cap(q) {
		// Grow into a fresh array with headroom; popped Due batches
		// still share the old one.
		grown := make([]Message, len(q), max(2*len(q), minQueueCap))
		copy(grown, q)
		q = grown
	}
	q = append(q, Message{})
	copy(q[i+1:], q[i:])
	q[i] = m
	f.queues[m.Dst] = q
}

// Due pops every frame deliverable to dst at its current virtual time,
// in (Arrive, Seq) order. The fleet stepper calls it at each step boundary
// of dst's clock domain.
func (f *Fabric) Due(dst int, now uint64) []Message {
	if dst < 0 || dst >= f.n {
		return nil
	}
	q := f.queues[dst]
	cut := 0
	for cut < len(q) && q[cut].Arrive <= now {
		cut++
	}
	if cut == 0 {
		return nil
	}
	// The batch shares the queue's array without copying: the queue keeps
	// only q[cut:], so no later enqueue writes below cut, and the batch's
	// capacity ends at cut, so a caller's append cannot reach the queue.
	out := q[:cut:cut]
	f.queues[dst] = q[cut:]
	f.stats.Delivered += uint64(cut)
	for _, m := range out {
		// Injected frames may carry a forged Src; only real links account.
		if m.Src < 0 || m.Src >= f.n || m.Src == dst {
			continue
		}
		l := &f.links[m.Src][dst]
		l.stats.Delivered++
		if m.Arrive >= m.Sent {
			l.lat.Observe(m.Arrive - m.Sent)
		}
	}
	return out
}

// NextArrival returns the earliest pending arrival time for dst, if any —
// the virtual cycle a blocked clock domain must advance to for its next
// wake-up.
func (f *Fabric) NextArrival(dst int) (uint64, bool) {
	if dst < 0 || dst >= f.n || len(f.queues[dst]) == 0 {
		return 0, false
	}
	return f.queues[dst][0].Arrive, true
}

// Stats returns the fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// LinkStats returns the counters for the directed link src → dst (zero
// for out-of-range or self links). Injected, Swallowed and Discarded are
// always zero per link: a forged frame has no trustworthy source, so the
// host's handling is counted in Stats alone.
func (f *Fabric) LinkStats(src, dst int) Stats {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n || src == dst {
		return Stats{}
	}
	return f.links[src][dst].stats
}

// LinkLatency returns a copy of the delivered-frame latency histogram for
// the directed link src → dst: virtual cycles from Send to the frame
// becoming deliverable (wire time, not queueing at the receiver).
func (f *Fabric) LinkLatency(src, dst int) obs.Histogram {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n || src == dst {
		return obs.Histogram{}
	}
	return f.links[src][dst].lat
}

// CountersFor returns a pull-based obs aux-counter source exposing every
// outbound link of machine id. Names are fixed by topology alone —
// `fabric-link-<src>-<dst>-{sent,delivered,dropped,reordered}` in
// ascending destination order — so two runs of the same fleet export
// identical name sets regardless of traffic.
func (f *Fabric) CountersFor(id int) func() ([]string, []uint64) {
	return func() ([]string, []uint64) {
		var names []string
		var values []uint64
		for d := 0; d < f.n; d++ {
			if d == id {
				continue
			}
			st := f.LinkStats(id, d)
			prefix := fmt.Sprintf("fabric-link-%d-%d-", id, d)
			names = append(names, prefix+"sent", prefix+"delivered", prefix+"dropped", prefix+"reordered")
			values = append(values, st.Sent, st.Delivered, st.Dropped, st.Reordered)
		}
		return names, values
	}
}

// GaugesFor returns a pull-based obs aux-gauge source exposing wire-
// latency quantiles for every inbound link of machine id (the receiver
// observes delivery latency), in ascending source order.
func (f *Fabric) GaugesFor(id int) func() ([]string, []float64) {
	return func() ([]string, []float64) {
		var names []string
		var values []float64
		for s := 0; s < f.n; s++ {
			if s == id {
				continue
			}
			h := f.LinkLatency(s, id)
			prefix := fmt.Sprintf("fabric-link-%d-%d-lat-", s, id)
			names = append(names, prefix+"p50", prefix+"p99")
			values = append(values, float64(h.Quantile(0.5)), float64(h.Quantile(0.99)))
		}
		return names, values
	}
}

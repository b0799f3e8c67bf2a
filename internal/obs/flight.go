package obs

// DefaultFlightCapacity is the flight-recorder ring size: small enough to
// stay always-on (64 B/event ⇒ 32 KiB), large enough that the dump shows
// the full request that killed the CVM.
const DefaultFlightCapacity = 512

// Flight is the always-on post-mortem ring: a bounded event buffer that
// is kept independent of the (optional, much larger) trace Recorder, so
// the last-K events before a CVM halt are available even when tracing is
// off. It carries no metrics registry and never allocates after
// construction.
//
// Producers claim a slot with Alloc and fill it in place. The ring never
// reads the event a claim overwrites: it counts claims per class, and
// derives the eviction counts from those and the retained events when
// asked.
//
// A nil *Flight is valid for every method except Alloc.
type Flight struct {
	ring
	// byClass breaks the claims down per event class. On a busy run
	// almost everything rolls out of the 512-slot ring, and
	// DroppedByClass says *what* the post-mortem can no longer show.
	byClass [NumClasses]uint64
}

// NewFlight creates a flight ring holding capacity events
// (DefaultFlightCapacity if capacity <= 0).
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &Flight{ring: newRing(capacity)}
}

// Alloc claims the next slot for an event of class c, evicting the oldest
// when the ring is full, and returns it dirty: the caller must assign
// every field, with Class equal to c. f must be non-nil.
func (f *Flight) Alloc(c Class) *Event {
	if c < NumClasses {
		f.byClass[c]++
	}
	return f.claim()
}

// Skip accounts n events of class c that rolled out of the ring before
// anyone read them, as if each had been claimed with Alloc: they count as
// claims of c, every retained event is evicted with them, and the ring
// restarts empty. A producer that knows its next Cap() events overwrite
// these n uses Skip instead of writing them. f must be non-nil.
func (f *Flight) Skip(c Class, n uint64) {
	if c < NumClasses {
		f.byClass[c] += n
	}
	f.skip(n)
}

// Len returns the number of events currently held.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	return f.len()
}

// Cap returns the ring capacity.
func (f *Flight) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.buf)
}

// Dropped returns how many events rolled out of the ring.
func (f *Flight) Dropped() uint64 {
	if f == nil {
		return 0
	}
	return f.dropped()
}

// DroppedByClass returns the per-class eviction counts: the claims of
// each class minus the retained events of that class. Nil-safe (returns
// zeros).
func (f *Flight) DroppedByClass() [NumClasses]uint64 {
	if f == nil {
		return [NumClasses]uint64{}
	}
	out := f.byClass
	for i := range f.len() {
		if c := f.buf[i].Class; c < NumClasses {
			out[c]--
		}
	}
	return out
}

// Events returns the retained events, oldest first.
func (f *Flight) Events() []Event {
	if f == nil {
		return nil
	}
	return f.newest(-1)
}

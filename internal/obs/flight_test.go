package obs

import (
	"math/rand"
	"reflect"
	"testing"
)

// refFlight is the eager flight ring Flight replaced, kept as the oracle:
// it reads the class of every event it overwrites and counts the eviction
// on the spot. Flight derives the same counts from per-class claim totals
// and the retained events.
type refFlight struct {
	buf            []Event
	next           int
	full           bool
	dropped        uint64
	droppedByClass [NumClasses]uint64
}

func (f *refFlight) Record(e Event) {
	if f.full {
		f.dropped++
		if c := f.buf[f.next].Class; c < NumClasses {
			f.droppedByClass[c]++
		}
	}
	f.buf[f.next] = e
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.full = true
	}
}

func (f *refFlight) Events() []Event {
	out := make([]Event, 0, len(f.buf))
	if f.full {
		out = append(out, f.buf[f.next:]...)
	}
	return append(out, f.buf[:f.next]...)
}

// TestFlightMatchesEagerReference drives Flight and the eager oracle with
// the same random class sequences over capacities from 1 up, well past
// several wraps, and compares every observable after each event.
func TestFlightMatchesEagerReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, capacity := range []int{1, 2, 3, 7, 16, 64} {
		for trial := 0; trial < 8; trial++ {
			f := NewFlight(capacity)
			ref := &refFlight{buf: make([]Event, capacity)}
			for i := 0; i < 5*capacity+r.Intn(40); i++ {
				// Mostly a few hot classes, sometimes any class, and now and
				// then one outside the catalog, which neither side counts.
				c := Class(r.Intn(3))
				switch r.Intn(8) {
				case 0:
					c = Class(r.Intn(int(NumClasses)))
				case 1:
					c = NumClasses + Class(r.Intn(3))
				}
				ev := Event{TS: uint64(i), Arg1: r.Uint64(), VCPU: int32(r.Intn(4)), VMPL: -1, Class: c, Kind: Instant}
				e := f.Alloc(c)
				*e = ev
				ref.Record(ev)

				if f.Len() != len(ref.Events()) || f.Cap() != capacity {
					t.Fatalf("cap %d event %d: Len %d Cap %d, reference holds %d", capacity, i, f.Len(), f.Cap(), len(ref.Events()))
				}
				if f.Dropped() != ref.dropped {
					t.Fatalf("cap %d event %d: Dropped %d, reference %d", capacity, i, f.Dropped(), ref.dropped)
				}
				if f.DroppedByClass() != ref.droppedByClass {
					t.Fatalf("cap %d event %d: DroppedByClass %v, reference %v", capacity, i, f.DroppedByClass(), ref.droppedByClass)
				}
				if !reflect.DeepEqual(f.Events(), ref.Events()) {
					t.Fatalf("cap %d event %d: retained events differ from the reference", capacity, i)
				}
			}
		}
	}
}

// TestNilFlight: every accessor on a nil ring reports an empty ring.
func TestNilFlight(t *testing.T) {
	var f *Flight
	if f.Len() != 0 || f.Cap() != 0 || f.Dropped() != 0 || f.Events() != nil || f.DroppedByClass() != ([NumClasses]uint64{}) {
		t.Fatal("nil Flight is not empty")
	}
}

package obs

import (
	"strconv"
	"sync"
)

// Export scratch: the Prometheus exporter formats into one pooled byte
// buffer and hands the writer a single Write call. The pool keeps steady-state
// exports allocation-free — a scraped /metrics endpoint or a per-round
// bench export reuses the same grown buffer instead of re-fmt'ing
// thousands of lines through the reflection path.
var exportScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// eventMergePool recycles the shard-merge slices the trace exporters use:
// a Chrome export of a full ring merges hundreds of thousands of events,
// and the merge buffer is by far its largest allocation.
var eventMergePool = sync.Pool{New: func() any { return new([]Event) }}

// classQuoted holds each class name pre-quoted (%q form) so label
// rendering is a plain append.
var classQuoted = func() [NumClasses]string {
	var out [NumClasses]string
	for c := Class(0); c < NumClasses; c++ {
		out[c] = strconv.Quote(c.String())
	}
	return out
}()

// appendQuoted appends s under fmt's %q.
func appendQuoted(b []byte, s string) []byte {
	return strconv.AppendQuote(b, s)
}

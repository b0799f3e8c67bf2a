package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"veil/internal/cvm"
)

// pbuf is a minimal protobuf writer for building test profiles.
type pbuf struct{ b []byte }

func (p *pbuf) key(field, wire int) { p.b = binary.AppendUvarint(p.b, uint64(field<<3|wire)) }

func (p *pbuf) uint(field int, v uint64) {
	p.key(field, 0)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbuf) msg(field int, b []byte) {
	p.key(field, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(field int, vs ...uint64) {
	var q pbuf
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.msg(field, q.b)
}

// syntheticProfile encodes samples whose stacks (leaf first) are lists of
// locations, each a list of function names innermost-inlined first.
func syntheticProfile(t *testing.T, samples []struct {
	stack [][]string
	ns    uint64
}) []byte {
	t.Helper()
	var p pbuf
	strs := []string{""}
	strIdx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	fnID := map[string]uint64{}
	var fns, locs pbuf
	nextLoc := uint64(1)
	for i, s := range samples {
		var ids []uint64
		for _, loc := range s.stack {
			var l pbuf
			l.uint(1, nextLoc)
			for _, fn := range loc {
				id, ok := fnID[fn]
				if !ok {
					id = uint64(len(fnID) + 1)
					fnID[fn] = id
					var f pbuf
					f.uint(1, id)
					f.uint(2, str(fn))
					fns.msg(5, f.b)
				}
				var line pbuf
				line.uint(1, id)
				line.uint(2, 42)
				l.msg(4, line.b)
			}
			locs.msg(4, l.b)
			ids = append(ids, nextLoc)
			nextLoc++
		}
		var sm pbuf
		if i%2 == 0 {
			sm.packed(1, ids...)
		} else {
			for _, id := range ids {
				sm.uint(1, id) // unpacked encoding is legal too
			}
		}
		sm.packed(2, 1, s.ns)
		p.msg(2, sm.b)
	}
	p.b = append(p.b, locs.b...)
	p.b = append(p.b, fns.b...)
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestHostSharesFirstVeilFrameFromLeaf(t *testing.T) {
	samples := []struct {
		stack [][]string
		ns    uint64
	}{
		// stdlib work charges its veil caller.
		{[][]string{{"runtime.memmove"}, {"veil/internal/snp.(*Machine).Span"}, {"veil/internal/core.(*Monitor).drainRing"}}, 100},
		{[][]string{{"crypto/aes.encryptBlockAsm"}, {"veil/internal/services/chn.(*Service).serveSend"}}, 200},
		// no veil frame at all.
		{[][]string{{"runtime.scanobject"}, {"runtime.gcBgMarkWorker"}}, 300},
		// inlined frames: the innermost line wins.
		{[][]string{{"veil/internal/sdk/sanitizer.CallSpec.Validate", "veil/internal/hv.(*Hypervisor).VMGEXIT"}}, 400},
		{[][]string{{"veil/internal/services/kci.(*Service).handle"}}, 50},
		{[][]string{{"veil/internal/mm.(*PhysAllocator).Alloc"}}, 25},
		// the benchmark's own frames are not veil/internal: keep walking.
		{[][]string{{"main.(*ringTask).Step"}, {"veil/internal/sched.(*Scheduler).runSlice"}}, 10},
	}
	got, err := hostShares(syntheticProfile(t, samples))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"snp": 100, "chn": 200, "gc": 300, "sdk": 400, "other": 50, "kernel": 25, "sched": 10}
	if len(got) != len(want) {
		t.Errorf("modules %v, want %v", got, want)
	}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("%s = %d ns, want %d", m, got[m], v)
		}
	}
}

func TestHostSharesOnRecordedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		c, err := cvm.Boot(cvm.Options{Veil: true, MemBytes: 64 << 20})
		if err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
		c.M.Release()
	}
	pprof.StopCPUProfile()
	shares, err := hostShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, veil int64
	for m, v := range shares {
		total += v
		if m != "gc" {
			veil += v
		}
	}
	if total == 0 || veil == 0 {
		t.Fatalf("profile of CVM boots has %d ns sampled, %d in veil modules", total, veil)
	}
	sum := 0.0
	for _, m := range hostModules {
		sum += 100 * float64(shares[m]) / float64(total)
	}
	if math.Abs(sum-100) > 0.5 {
		t.Errorf("host shares sum to %.3f%%", sum)
	}
}

func TestHostSharesRejectsGarbage(t *testing.T) {
	if _, err := hostShares([]byte("not a profile")); err == nil {
		t.Error("no error for a non-gzip profile")
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	zw.Write([]byte{0x12, 0x05, 0x01}) // a length running past the end
	zw.Close()
	if _, err := hostShares(out.Bytes()); err == nil {
		t.Error("no error for a truncated message")
	}
}

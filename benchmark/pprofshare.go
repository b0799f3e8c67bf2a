package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the part of runtime/pprof's output the traced
// run needs: the gzip-compressed profile.proto messages Profile (sample,
// location, function, string_table), Sample (location_id, value),
// Location (id, line), Line (function_id) and Function (id, name).
// Everything else in the profile is skipped.

// hostModules are the veil/internal modules host CPU is charged to, in
// report order. "gc" takes samples with no veil frame at all (collector
// workers, scheduler, the benchmark's own loop); "other" takes veil frames
// of modules no workload is meant to exercise (kci, vtpm, audit, ...).
var hostModules = []string{
	"snp", "hv", "core", "sdk", "kernel", "enc", "vlog", "chn", "attest",
	"sched", "fabric", "cvm", "obs", "workloads", "gc", "other",
}

// moduleOf maps a fully qualified Go function name to its host_share
// bucket, or "" when the frame is not veil code. Sub-packages fold into
// their parent (sdk/sanitizer → sdk) and services/<name> into <name>.
func moduleOf(fn string) string {
	const prefix = "veil/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	mod := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		mod = rest[:i]
		if mod == "services" && rest[i] == '/' {
			svc := rest[i+1:]
			if j := strings.IndexAny(svc, "./"); j >= 0 {
				svc = svc[:j]
			}
			mod = svc
		}
	}
	if mod == "mm" {
		mod = "kernel" // the kernel's physical allocator
	}
	for _, m := range hostModules {
		if m == mod {
			return m
		}
	}
	return "other"
}

// hostShares charges every CPU sample of a gzip-compressed pprof profile to
// the first veil module found walking its stack from the leaf (inlined
// frames innermost first), so runtime and stdlib work — memmove, malloc,
// crypto — lands on the veil code that asked for it. It returns sampled CPU
// nanoseconds per module; samples without a veil frame go to "gc".
func hostShares(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	fnName := make(map[uint64]string, len(p.functions))
	for id, nameIdx := range p.functions {
		if nameIdx < 0 || nameIdx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("pprof: function %d names string %d of %d", id, nameIdx, len(p.strings))
		}
		fnName[id] = p.strings[nameIdx]
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		// CPU profiles carry (samples, nanoseconds); charge nanoseconds.
		v := s.values[len(s.values)-1]
		mod := "gc"
	stack:
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				if m := moduleOf(fnName[fid]); m != "" {
					mod = m
					break stack
				}
			}
		}
		out[mod] += v
	}
	return out, nil
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples   []pprofSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

var errProto = errors.New("pprof: malformed protobuf")

// protoFields walks one message, calling fn with each field number, wire
// type, varint value (wire types 0, 1, 5) and payload (wire type 2).
func protoFields(b []byte, fn func(field int, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// protoUints appends a repeated integer field in either encoding: packed
// (wire type 2) or one varint per field occurrence.
func protoUints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := protoFields(b, func(field, wire int, _ uint64, msg []byte) error {
		if wire != 2 {
			return nil
		}
		switch field {
		case 2: // Sample
			var s pprofSample
			var vals []uint64
			err := protoFields(msg, func(f, w int, v uint64, pl []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = protoUints(s.locs, w, v, pl)
				case 2:
					vals, err = protoUints(vals, w, v, pl)
				}
				return err
			})
			if err != nil {
				return err
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(msg, func(f, w int, v uint64, pl []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(pl, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(msg, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

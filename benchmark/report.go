package main

import (
	"fmt"
	"math"
	"sort"

	"veil/internal/snp"
	"veil/internal/workloads"
)

// catalog lists the workloads, each a different way across the protection
// boundary. README.md records why each exists.
func catalog() []workload {
	sqlite := &program{
		build:   func(r *round) workloads.Workload { return workloads.SQLite(r.scaled(sqliteInserts)) },
		calls:   func(r *round) int { return 3 * r.scaled(sqliteInserts) },
		mem:     64 << 20,
		enclave: true,
		check:   checkSQLite,
	}
	lighttpd := &program{
		build:   func(r *round) workloads.Workload { return workloads.Lighttpd(r.scaled(lighttpdRequests)) },
		calls:   func(r *round) int { return 8 * r.scaled(lighttpdRequests) },
		mem:     64 << 20,
		enclave: true,
		www:     true,
		check:   noCheck,
	}
	nginx := &program{
		build:    func(r *round) workloads.Workload { return workloads.NGINX(r.scaled(nginxRequests)) },
		calls:    func(r *round) int { return 8 * r.scaled(nginxRequests) },
		mem:      128 << 20,
		logPages: func(r *round) uint64 { return max(64, uint64(math.Ceil(nginxStorePages*r.scale))) },
		audit:    true,
		www:      true,
		check:    checkNGINX,
	}
	return []workload{
		{name: "enc-sqlite", round: sqlite.round, native: sqlite.native, paperOverheadPct: 63.9},
		{name: "enc-lighttpd", round: lighttpd.round, native: lighttpd.native, paperOverheadPct: 25},
		{name: "audit-nginx", round: nginx.round, native: nginx.native, paperOverheadPct: 18.7},
		{name: "smp-ring", round: func(r *round) error { return ringRound(r, ringStorePages) }},
		{name: "fleet-echo", round: func(r *round) error { return fleetRound(r, nil) }},
	}
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "req/s"},
	{"cpu_us_per_op", "us"},
	{"vcyc_per_op", "cycles"},
	{"vcyc_p50", "cycles"},
	{"vcyc_p99", "cycles"},
	{"allocs_per_op", "allocs"},
	{"alloc_bytes_per_op", "B"},
	{"mem_peak_mb", "MiB"},
}

// perLayer lists the traced run's metrics with their units, in report
// order. Every name is reported on every workload: 0 where the workload
// does not exercise the layer.
func perLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, m := range hostModules {
		add("%", "host_share."+m)
	}
	for k := 0; k < snp.NumCostKinds; k++ {
		add("cycles", "vcyc."+snp.CostKind(k).String()+"_per_op")
	}
	add("us", "req.host_us_p50", "req.host_us_p99")
	add("count", "req.count")
	add("%", "trace_overhead_pct")
	add("ratio", "snp.tlb_hit_ratio")
	add("count/op", "snp.tlb_misses_per_op", "snp.tlb_rmp_flushes_per_op", "snp.tlb_pt_invalidations_per_op",
		"snp.spans_per_op", "snp.span_batch_hits_per_op",
		"hv.vmgexits_per_op", "hv.domain_switches_per_op", "hv.automatic_exits_per_op", "hv.interrupts_per_op",
		"sdk.marshal_calls_per_op", "sdk.enclave_exits_per_op")
	add("B/op", "sdk.copy_bytes_per_op")
	for _, op := range libcOps {
		add("us", "libc."+op+".host_us_p50")
	}
	add("count/op", "kernel.syscalls_per_op", "kernel.audit_records_per_op")
	add("us", "core.submit_us_p50", "core.doorbell_us_p50", "core.poll_us_p50", "core.wait_intr_us_p50")
	add("count", "core.ops_per_drain")
	add("cycles", "core.ring_lat_vcyc_p50", "core.ring_lat_vcyc_p99")
	add("count/op", "vlog.records_per_op")
	add("ratio", "vlog.store_fill_ratio")
	add("count", "vlog.dropped")
	add("count/op", "sched.slices_per_op", "sched.drains_per_op", "sched.wakeups_per_op")
	add("cycles", "sched.wake_lat_vcyc_p50", "sched.wake_lat_vcyc_p99")
	add("rounds", "sched.drain_wait_rounds_p99")
	add("vcpus", "sched.runqueue_mean")
	add("%", "sched.occupancy_pct")
	add("index", "sched.fairness_jain")
	add("us", "chn.send_us_p50", "chn.recv_us_p50", "chn.deliver_us_p50")
	add("count", "chn.refused", "chn.dropped")
	add("frames/msg", "fabric.frames_per_msg")
	add("cycles", "fabric.wire_vcyc_per_msg")
	add("count", "fabric.reordered")
	add("s", "cvm.boot_s")
	add("count/msg", "cvm.fleet_steps_per_msg", "cvm.fleet_idle_jumps_per_msg")
	add("ratio", "cvm.fleet_idle_ratio")
	add("us", "cvm.step_us_p50")
	add("count/op", "obs.events_per_op")
	add("count", "obs.dropped_events", "go.gc_cycles")
	add("ms", "go.gc_pause_ms")
	add("MiB", "go.heap_peak_mb")
	add("cycles", "model.native_vcyc_per_op")
	add("%", "model.overhead_pct", "model.paper_overhead_pct")
	add("pp", "model.paper_err_pp")
	return out
}

// hostTimers maps per-layer metric names to the traced timers behind them.
var hostTimers = map[string]string{
	"core.submit_us_p50":    "core.submit",
	"core.doorbell_us_p50":  "core.doorbell",
	"core.poll_us_p50":      "core.poll",
	"core.wait_intr_us_p50": "core.wait_intr",
	"chn.send_us_p50":       "chn.send",
	"chn.recv_us_p50":       "chn.recv",
	"chn.deliver_us_p50":    "chn.deliver",
	"cvm.step_us_p50":       "cvm.step",
}

type options struct {
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	// minRounds is the least number of rounds a run makes (the medians need
	// several); a run keeps going until seconds of window time pass.
	minRounds int
}

// run repeats rounds of w and reduces them to the reported metrics.
func run(w workload, o options) *result {
	if o.minRounds < 1 {
		o.minRounds = 1
	}
	res := &result{}
	var rounds []*round
	window := 0.0
	for i := 0; i < o.minRounds || window < o.seconds; i++ {
		// The traced variant alternates plain and traced rounds: the plain
		// ones are the baseline trace_overhead_pct is measured against.
		r := newRound(o.seed, o.scale, o.trace && i%2 == 1)
		if err := w.round(r); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("round %d: %v", i, err))
			res.failed++
			res.attempted += max(r.attempted, r.requests, 1)
			break
		}
		rounds = append(rounds, r)
		window += r.wall.Seconds()
	}
	res.perRound = rounds
	for i, r := range rounds {
		res.attempted += max(r.attempted, r.requests)
		res.failed += r.failed
		if r.attempted > r.requests {
			res.failed += r.attempted - r.requests
		}
		for _, p := range r.problems {
			res.problems = append(res.problems, fmt.Sprintf("round %d: %s", i, p))
		}
		if d := deterministicDiff(rounds[0], r); d != "" {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("round %d: virtual cycles differ from round 0 with the same seed: %s", i, d))
		}
	}
	if len(rounds) == 0 {
		return res
	}
	var plain, traced []*round
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if !o.trace {
		res.metrics = endToEndMetrics(rounds, plain)
		return res
	}
	res.metrics = layerMetrics(w, o, plain, traced, res)
	return res
}

// deterministicDiff reports how b's virtual-cycle results differ from a's.
func deterministicDiff(a, b *round) string {
	switch {
	case a.requests != b.requests:
		return fmt.Sprintf("%d vs %d requests", a.requests, b.requests)
	case a.vcyc != b.vcyc:
		return fmt.Sprintf("%d vs %d cycles", a.vcyc, b.vcyc)
	case a.attr != b.attr:
		return "cycle attribution"
	case a.lat.quantile(0.5) != b.lat.quantile(0.5) || a.lat.quantile(0.99) != b.lat.quantile(0.99):
		return "request latency"
	}
	return ""
}

func endToEndMetrics(all, plain []*round) []metric {
	r0 := all[0]
	vals := map[string]float64{
		"setup_s":            median(all, func(r *round) float64 { return r.setup.Seconds() / r.slowdown() }),
		"ops_per_s":          median(plain, opsPerSec),
		"cpu_us_per_op":      median(plain, func(r *round) float64 { return r.hostCPU() * 1e6 / float64(r.requests) }),
		"vcyc_per_op":        r0.perOp(r0.vcyc),
		"vcyc_p50":           r0.lat.quantile(0.5),
		"vcyc_p99":           r0.lat.quantile(0.99),
		"allocs_per_op":      median(plain, func(r *round) float64 { return r.perOp(r.ms1.Mallocs - r.ms0.Mallocs) }),
		"alloc_bytes_per_op": median(plain, func(r *round) float64 { return r.perOp(r.ms1.TotalAlloc - r.ms0.TotalAlloc) }),
		"mem_peak_mb":        median(all, func(r *round) float64 { return float64(r.memPeak) / (1 << 20) }),
	}
	out := make([]metric, 0, len(endToEnd))
	for _, m := range endToEnd {
		out = append(out, metric{m.name, vals[m.name], m.unit})
	}
	return out
}

func layerMetrics(w workload, o options, plain, traced []*round, res *result) []metric {
	vals := make(map[string]float64)
	if len(traced) == 0 {
		return nil
	}
	for _, m := range perLayer() {
		vals[m.name] = median(traced, func(r *round) float64 { return r.layer[m.name] })
	}

	// Host CPU by module, over every traced window's profile.
	ns := make(map[string]int64)
	var total int64
	for i, r := range traced {
		shares, err := hostShares(r.prof.Bytes())
		if err != nil {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("traced round %d profile: %v", i, err))
			continue
		}
		for m, v := range shares {
			ns[m] += v
			total += v
		}
	}
	for _, m := range hostModules {
		if total > 0 {
			vals["host_share."+m] = 100 * float64(ns[m]) / float64(total)
		}
	}

	timers := make(map[string]*hist)
	for _, r := range traced {
		for name, h := range r.timers {
			if timers[name] == nil {
				timers[name] = &hist{}
			}
			timers[name].merge(h)
		}
	}
	us := func(name string, q float64) float64 {
		if h := timers[name]; h != nil {
			return h.quantile(q) / 1e3
		}
		return 0
	}
	vals["req.host_us_p50"] = us("req", 0.5)
	vals["req.host_us_p99"] = us("req", 0.99)
	if h := timers["req"]; h != nil {
		vals["req.count"] = float64(h.count())
	}
	for _, op := range libcOps {
		vals["libc."+op+".host_us_p50"] = us("libc."+op, 0.5)
	}
	for name, timer := range hostTimers {
		vals[name] = us(timer, 0.5)
	}

	if len(plain) > 0 {
		vals["trace_overhead_pct"] = 100 * (median(plain, opsPerSec)/median(traced, opsPerSec) - 1)
	}

	if w.native != nil {
		vcyc, reqs, err := w.native(o.seed, o.scale)
		if err != nil {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("native rerun: %v", err))
		} else if reqs > 0 {
			r0 := traced[0]
			vals["model.native_vcyc_per_op"] = float64(vcyc) / float64(reqs)
			vals["model.overhead_pct"] = 100 * (float64(r0.vcyc) - float64(vcyc)) / float64(vcyc)
			vals["model.paper_overhead_pct"] = w.paperOverheadPct
			vals["model.paper_err_pp"] = vals["model.overhead_pct"] - w.paperOverheadPct
		}
	}

	var out []metric
	for _, m := range perLayer() {
		out = append(out, metric{m.name, vals[m.name], m.unit})
	}
	return out
}

func opsPerSec(r *round) float64 { return float64(r.requests) / r.hostWall() }

// median of f over rounds (0 for none).
func median(rounds []*round, f func(*round) float64) float64 {
	if len(rounds) == 0 {
		return 0
	}
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

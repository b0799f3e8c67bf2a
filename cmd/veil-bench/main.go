// Command veil-bench regenerates the tables and figures of the Veil
// paper's evaluation (§9) on the simulated SEV-SNP machine.
//
// Usage:
//
//	veil-bench -experiment all
//	veil-bench -experiment fig4 -iters 10000
//	veil-bench -experiment boot -mem 2048     # MiB, the paper's testbed
//	veil-bench -experiment fig5 -json -       # machine-readable results
//	veil-bench -experiment all -j 4 -stable   # parallel, wall-clock scrubbed
//	veil-bench -compare old.json new.json     # fail on >10% cycle regression
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"veil/internal/bench"
	"veil/internal/obs"
)

var (
	iters  int
	memMB  uint64
	stable bool
	text   bool
)

// experiment is one named generator. run computes the machine-readable
// result and, in text mode, writes the human report to w. Experiments are
// independent (each boots its own CVMs from fixed seeds), which is what
// makes the -j worker pool sound.
type experiment struct {
	name string
	run  func(w io.Writer) (any, error)
}

// experiments is the canonical order: reports and JSON keys come out the
// same way regardless of -j, so parallel output is byte-identical to
// sequential output.
var experiments = []experiment{
	{"boot", func(w io.Writer) (any, error) {
		r, err := bench.BootInit(memMB << 20)
		if err != nil {
			return nil, err
		}
		if text {
			bench.ReportBoot(w, r)
		}
		return r, nil
	}},
	{"switch", func(w io.Writer) (any, error) {
		r, err := bench.DomainSwitchCost(iters)
		if err != nil {
			return nil, err
		}
		if text {
			bench.ReportSwitch(w, r)
		}
		return r, nil
	}},
	{"background", func(w io.Writer) (any, error) {
		rows, err := bench.Background()
		if err != nil {
			return nil, err
		}
		if text {
			bench.ReportBackground(w, rows)
		}
		return rows, nil
	}},
	{"cs1", func(w io.Writer) (any, error) {
		n := iters
		if n > 100 {
			n = 100 // the paper's repetition count
		}
		r, err := bench.CS1Module(n)
		if err != nil {
			return nil, err
		}
		if text {
			bench.ReportCS1(w, r)
		}
		return r, nil
	}},
	{"fig4", func(w io.Writer) (any, error) {
		rows, attr, err := bench.Fig4Attr(iters)
		if err != nil {
			return nil, err
		}
		if text {
			bench.ReportFig4(w, rows)
			bench.ReportAttribution(w, "enclave side", attr)
		}
		return map[string]any{"rows": rows, "attribution": attr}, nil
	}},
	{"fig5", func(w io.Writer) (any, error) {
		rows, err := bench.Fig5()
		if err != nil {
			return nil, err
		}
		if text {
			bench.ReportFig5(w, rows)
		}
		return rows, nil
	}},
	{"fig6", func(w io.Writer) (any, error) {
		rows, err := bench.Fig6()
		if err != nil {
			return nil, err
		}
		if text {
			bench.ReportFig6(w, rows)
		}
		return rows, nil
	}},
	{"mempath", func(w io.Writer) (any, error) {
		// The fixed workload touches ~1200 pages per iteration; cap the
		// shared -iters default so "all" stays fast while still producing
		// stable TLB counters (everything but HostSeconds is deterministic).
		n := iters
		if n > 500 {
			n = 500
		}
		r, err := bench.MemPath(n)
		if err != nil {
			return nil, err
		}
		if stable {
			r.HostSeconds = 0
		}
		if text {
			bench.ReportMemPath(w, r)
		}
		return r, nil
	}},
	{"monitors", func(w io.Writer) (any, error) {
		if text {
			bench.ReportMonitors(w)
		}
		return nil, nil
	}},
	{"obs", func(w io.Writer) (any, error) {
		// Uncapped: the wall-clock comparison needs runs long enough to
		// swamp scheduler jitter (default 10000 inserts ≈ 100 ms per side).
		r, err := bench.ObsPath(iters)
		if err != nil {
			return nil, err
		}
		if stable {
			// Host-time fields (and the percentages derived from them) are
			// the only nondeterministic outputs; -stable zeroes them so runs
			// can be byte-compared.
			r.HostSecondsDark = 0
			r.HostSecondsTracing = 0
			r.HostSecondsAudited = 0
			r.TracingOverheadPct = 0
			r.AuditorOverheadPct = 0
		}
		if text {
			bench.ReportObsPath(w, r)
		}
		return r, nil
	}},
	{"ablation", func(w io.Writer) (any, error) {
		rows, err := bench.Ablation()
		if err != nil {
			return nil, err
		}
		if text {
			bench.ReportAblation(w, rows)
		}
		return rows, nil
	}},
	{"batch", func(w io.Writer) (any, error) {
		r, err := bench.Batch()
		if err != nil {
			return nil, err
		}
		if text {
			bench.ReportBatch(w, r)
		}
		return r, nil
	}},
	{"smp", func(w io.Writer) (any, error) {
		r, err := bench.SMP()
		if err != nil {
			return nil, err
		}
		if text {
			bench.ReportSMP(w, r)
		}
		return r, nil
	}},
	{"fleet", func(w io.Writer) (any, error) {
		r, err := bench.Fleet()
		if err != nil {
			return nil, err
		}
		if text {
			bench.ReportFleet(w, r)
		}
		return r, nil
	}},
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit status instead of calling
// os.Exit, so deferred cleanup — the CPU profile's flush above all — runs
// on every path out.
func run(args []string) int {
	fs := flag.NewFlagSet("veil-bench", flag.ContinueOnError)
	exp := fs.String("experiment", "all",
		"experiment to run: fig4|fig5|fig6|boot|switch|background|cs1|mempath|monitors|ablation|obs|batch|smp|fleet|all")
	fs.IntVar(&iters, "iters", 10000, "iterations for fig4/switch/cs1 micro-benchmarks")
	fs.Uint64Var(&memMB, "mem", 2048, "guest memory (MiB) for the boot experiment")
	jsonOut := fs.String("json", "",
		"emit machine-readable per-experiment results as JSON to this path ('-' = stdout) instead of text reports")
	auditOn := fs.Bool("audit", false,
		"attach the security-invariant auditor to every experiment CVM and exit 1 on any violation (the clean-workload CI check; charges no virtual cycles, so goldens are unaffected)")
	jobs := fs.Int("j", 1, "experiments to run in parallel; 0 = one worker per CPU (output order is unaffected)")
	fs.BoolVar(&stable, "stable", false,
		"zero host wall-clock fields so two runs of the same build are byte-identical")
	compare := fs.Bool("compare", false,
		"compare mode: veil-bench -compare old.json new.json; exit 1 if any *Cycles* value regressed by >10%, any *OverheadPct* grew past -tol, or any *Fairness* index dropped by more than -tol/100")
	tol := fs.Float64("tol", defaultOverheadTolPP,
		"compare mode: absolute percentage-point growth allowed on *OverheadPct* values before failing")
	hostTol := fs.Float64("host-tol", defaultHostTolPct,
		"compare mode: relative growth (percent) allowed on pure host-side values (*HostSeconds*, *HostNs*; *Speedup* gates the same bound as a drop) — looser than the cycle gate because host time is noisy even on the thread CPU clock")
	cpuProfile := fs.String("cpuprofile", "",
		"write a pprof CPU profile covering the selected experiments to this path")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *compare {
		return runCompare(fs.Args(), *tol, *hostTol)
	}

	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "veil-bench: %v\n", err)
			return 1
		}
		defer stop()
	}

	if *auditOn {
		bench.SetAuditing(true)
	}
	text = *jsonOut == ""

	var selected []experiment
	for _, e := range experiments {
		if *exp == "all" || *exp == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "veil-bench: unknown experiment %q\n", *exp)
		return 2
	}

	// Run the selection — sequentially, or whole-experiment-at-a-time on a
	// fixed pool of -j workers (-j 0 saturates the machine with one worker
	// per CPU). Workers claim the next unstarted experiment from a shared
	// atomic index — a work-stealing queue in the degenerate all-tasks-
	// shared form — so no worker sits idle while experiments remain, and a
	// long experiment (fleet, obs) never strands the capacity a static
	// shard assignment would have pinned behind it. Long-lived workers also
	// keep reusing their CPU's pooled machine backings (internal/snp
	// pool.go) across experiments instead of cold-allocating per boot.
	//
	// Each worker buffers its text report; buffers are flushed in canonical
	// order, so -j never changes the output bytes.
	type outcome struct {
		result any
		text   bytes.Buffer
		err    error
	}
	outs := make([]outcome, len(selected))
	workers := *jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(selected) {
		workers = len(selected)
	}
	if workers <= 1 {
		for i, e := range selected {
			outs[i].result, outs[i].err = e.run(&outs[i].text)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(selected) {
						return
					}
					outs[i].result, outs[i].err = selected[i].run(&outs[i].text)
				}
			}()
		}
		wg.Wait()
	}

	// results collects every experiment's machine-readable form, keyed by
	// experiment name; the text report and the JSON object are built from
	// the same rows (and the same obs metrics registry underneath).
	results := map[string]any{}
	for i, e := range selected {
		if outs[i].err != nil {
			fmt.Fprintf(os.Stderr, "veil-bench: %s: %v\n", e.name, outs[i].err)
			return 1
		}
		if outs[i].result != nil {
			results[e.name] = outs[i].result
		}
		if text {
			os.Stdout.Write(outs[i].text.Bytes())
			fmt.Println()
		}
	}

	if *auditOn {
		cvms, violations := bench.AuditViolations()
		fmt.Fprintf(os.Stderr, "veil-bench: auditor: %d CVMs audited, %d violations\n", cvms, violations)
		if violations > 0 {
			return 1
		}
	}

	if !text {
		if err := writeJSON(*jsonOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "veil-bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeJSON writes results as indented JSON to path ('-' = stdout) and
// returns the first encode or close error, so a truncated or missing
// artifact never ends in a clean exit.
func writeJSON(path string, results any) error {
	if path == "-" {
		return encodeJSON(os.Stdout, results)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = encodeJSON(f, results)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

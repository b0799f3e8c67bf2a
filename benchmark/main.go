// Command benchmark is the repository benchmark: five workloads that each
// cross a Veil protection boundary in a different way, measured on both of
// the simulator's clocks — virtual cycles (the modelled hardware) and host
// time (how long the simulator makes a user wait).
//
//	go run . -workload <name|all> [-seed N] [-seconds S] [-scale F] [-trace 0|1]
//
// A run repeats rounds of one workload (fresh set-up, then a measured window
// of a fixed request count) until -seconds of window time have passed, and
// reports medians over the rounds. It prints "name value unit" lines and,
// last, one JSON object with the run's verdict and metrics: the end-to-end
// metrics by default, the per-layer metrics with -trace 1. It exits 1 when
// any request failed or any output check did not hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// workload is one benchmark workload.
type workload struct {
	name string
	// round runs one set-up plus measured window.
	round func(r *round) error
	// native reruns the program on a native CVM for the model.* metrics;
	// nil where the paper has no counterpart.
	native func(seed int64, scale float64) (vcyc, requests uint64, err error)
	// paperOverheadPct is the paper's overhead for the program (Figs. 5, 6).
	paperOverheadPct float64
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured window time to accumulate")
	scale := flag.Float64("scale", 1, "request-count multiplier per round")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()

	if *name == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	var w *workload
	for _, c := range catalog() {
		if c.name == *name {
			w = &c
			break
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	fmt.Printf("# workload %s seed %d scale %g trace %d\n", w.name, *seed, *scale, *trace)
	fmt.Printf("# nproc %d GOMAXPROCS %d %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res := run(*w, options{seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1, minRounds: 3})
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "benchmark:", p)
	}
	for i, r := range res.perRound {
		fmt.Printf("# round %d traced %v setup_s %.6f wall_s %.6f cpu_s %.6f requests %d probe_s %.6f slowdown %.4f\n", i, r.traced, r.setup.Seconds(), r.wall.Seconds(), r.cpu.Seconds(), r.requests, r.probeTime.Seconds(), r.slowdown())
	}
	for _, m := range res.metrics {
		fmt.Printf("%s %.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("# rounds %d attempted %d failed %d fail_ratio %.6g\n", len(res.perRound), res.attempted, res.failed, res.failRatio())
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

// runAll re-executes this binary once per workload, so no heap, RSS or GC
// state leaks from one workload into the next.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	status := 0
	for _, n := range workloadNames() {
		var childArgs []string
		for i := 0; i < len(args); i++ {
			a := args[i]
			if a == "-workload" || a == "--workload" {
				i++
				continue
			}
			if strings.HasPrefix(a, "-workload=") || strings.HasPrefix(a, "--workload=") {
				continue
			}
			childArgs = append(childArgs, a)
		}
		cmd := exec.Command(self, append([]string{"-workload", n}, childArgs...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", n, err)
			status = 1
		}
	}
	return status
}

func workloadNames() []string {
	var out []string
	for _, w := range catalog() {
		out = append(out, w.name)
	}
	return out
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	attempted uint64
	failed    uint64
	problems  []string
	metrics   []metric
	perRound  []*round
}

func (r *result) failRatio() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// json renders the contract's last line: verdict, counts and metrics.
func (r *result) json() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	attempted := r.attempted
	if attempted == 0 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), attempted, r.failed, ms})
}

// Command veil-mc drives the bounded model checker of internal/mc: it
// enumerates every host-controlled choice — schedule picks, per-delivery
// interrupt modes, RMPADJUST injection timing — up to a branch-depth
// bound against a deterministic Veil CVM, asserting the audit invariants
// on every path.
//
// Usage:
//
//	veil-mc                          # explore the default 2-VCPU config
//	veil-mc -depth 10 -workers 1     # deeper, one replay at a time
//	veil-mc -json                    # machine-readable summary (deterministic)
//	veil-mc -broken-tlb -expect-violation -ce ce.json
//	                                 # teeth: the seeded TLB bug must be caught
//	veil-mc -replay ce.json -postmortem
//	                                 # re-run a counterexample, dump forensics
//
// Exit status is 0 when exploration found no violation (or, under
// -expect-violation, exactly when it found one), 1 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"veil/internal/mc"
)

func main() {
	d := mc.Defaults()
	vcpus := flag.Int("vcpus", d.VCPUs, "VCPU count (one submitter process per VCPU)")
	procs := flag.Int("procs", 0, "submitter processes (default: one per VCPU)")
	batches := flag.Int("batches", d.Batches, "ring batches per submitter")
	ops := flag.Int("ops", d.BatchSize, "submissions per batch")
	depth := flag.Int("depth", d.Depth, "branch budget: choice points enumerated per path")
	latency := flag.Int("latency", d.DrainLatency, "drain pickup latency in scheduler rounds")
	seed := flag.Int64("seed", d.Seed, "boot key-material seed")
	maxSteps := flag.Int("max-steps", d.MaxSteps, "per-path scheduler round budget")
	workers := flag.Int("workers", 0, "parallel replay workers (0 = GOMAXPROCS)")
	maxReplays := flag.Uint64("max-replays", 0, "truncate exploration after N replays (0 = unbounded)")
	brokenTLB := flag.Bool("broken-tlb", false, "boot with TLB invalidation suppressed (known-bad teeth mutation)")
	noRMP := flag.Bool("no-rmp-inject", false, "disable the hostile RMPADJUST choice point")
	noIntr := flag.Bool("no-intr-modes", false, "disable the per-delivery interrupt-mode choice point")
	noDedup := flag.Bool("no-dedup", false, "disable visited-state pruning")
	jsonOut := flag.Bool("json", false, "print the summary as JSON (deterministic, diffable)")
	cePath := flag.String("ce", "", "write the counterexample JSON to this file when found")
	replayPath := flag.String("replay", "", "replay a counterexample file instead of exploring")
	postmortem := flag.Bool("postmortem", false, "with -replay: dump the frozen post-mortem JSON")
	expectViolation := flag.Bool("expect-violation", false, "invert the verdict: exit 0 iff a violation was found (teeth gates)")
	flag.Parse()

	if *replayPath != "" {
		os.Exit(replay(*replayPath, *postmortem, *expectViolation))
	}

	cfg := mc.Config{
		VCPUs: *vcpus, Procs: *procs, Batches: *batches, BatchSize: *ops,
		Depth: *depth, DrainLatency: *latency, Seed: *seed, MaxSteps: *maxSteps,
		MemBytes: d.MemBytes, LogPages: d.LogPages,
		RMPInject: !*noRMP, IntrModes: !*noIntr, BrokenTLB: *brokenTLB,
		Workers: *workers,
		NoDedup: *noDedup, MaxReplays: *maxReplays,
	}
	sum, err := mc.Explore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "veil-mc:", err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintln(os.Stderr, "veil-mc:", err)
			os.Exit(1)
		}
	} else {
		printSummary(sum)
	}

	if sum.Counterexample != nil && *cePath != "" {
		f, err := os.Create(*cePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "veil-mc:", err)
			os.Exit(1)
		}
		werr := sum.Counterexample.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "veil-mc:", werr)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("counterexample written to %s\n", *cePath)
		}
	}

	violated := sum.ViolatingPaths > 0
	if *expectViolation {
		if !violated {
			fmt.Fprintln(os.Stderr, "veil-mc: expected a violation (teeth mode) but every path held")
			os.Exit(1)
		}
		os.Exit(0)
	}
	if violated {
		os.Exit(1)
	}
}

func printSummary(sum mc.Summary) {
	c := sum.Config
	fmt.Printf("veil-mc: %d VCPUs × %d procs, %d×%d ops, depth %d\n",
		c.VCPUs, c.Procs, c.Batches, c.BatchSize, c.Depth)
	fmt.Printf("  choice points: sched-pick")
	if c.IntrModes {
		fmt.Printf(" × intr-mode")
	}
	if c.RMPInject {
		fmt.Printf(" × rmp-inject")
	}
	if c.BrokenTLB {
		fmt.Printf("   [broken-TLB mutation active]")
	}
	fmt.Println()
	fmt.Printf("  explored: %d replays, %d branch points, %d dedup hits, max prefix %d\n",
		sum.Replays, sum.Branches, sum.DedupHits, sum.MaxPrefix)
	fmt.Printf("  outcomes: %d completed, %d halted, %d refused (%d hostile paths)\n",
		sum.Completed, sum.Halted, sum.Refused, sum.HostilePaths)
	if sum.Truncated {
		fmt.Println("  NOTE: exploration truncated by -max-replays")
	}
	if sum.Counterexample == nil {
		fmt.Println("  verdict: every explored path upheld every invariant")
		return
	}
	ce := sum.Counterexample
	fmt.Printf("  verdict: VIOLATION on %d path(s); minimized counterexample (%d picks):\n",
		sum.ViolatingPaths, len(ce.Picks))
	for i, ch := range ce.Choices {
		marker := " "
		if ch.Pick != 0 {
			marker = "*"
		}
		fmt.Printf("   %s %2d: %s\n", marker, i, ch)
	}
	fmt.Printf("  outcome: %s (%s)\n", ce.Outcome, ce.Detail)
	for _, v := range ce.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
}

func replay(path string, postmortem, expectViolation bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "veil-mc:", err)
		return 1
	}
	ce, err := mc.ReadCounterexample(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "veil-mc:", err)
		return 1
	}
	res, err := mc.Replay(ce.Config, ce.Picks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "veil-mc:", err)
		return 1
	}
	fmt.Printf("veil-mc: replayed %d picks → %s (%s)\n", len(ce.Picks), res.Outcome, res.Detail)
	for i, ch := range res.Choices {
		marker := " "
		if ch.Pick != 0 {
			marker = "*"
		}
		fmt.Printf("  %s %2d: %s\n", marker, i, ch)
	}
	for _, v := range res.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
	if postmortem {
		if pm := res.CVM.M.PostMortem(); pm != nil {
			if err := pm.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "veil-mc:", err)
				return 1
			}
		} else {
			fmt.Println("  (no post-mortem frozen on this path)")
		}
	}
	violated := len(res.Violations) > 0
	if expectViolation != violated {
		return 1
	}
	return 0
}

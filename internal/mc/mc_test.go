package mc

import (
	"encoding/json"
	"strings"
	"testing"
)

// The headline claim: on the unmutated simulator, every interleaving ×
// delivery-mode × RMPADJUST-timing combination up to the depth bound ends
// acceptably — completed, defended halt, or evidenced refusal — with zero
// invariant violations.
func TestExploreCleanDefaults(t *testing.T) {
	cfg := Defaults()
	cfg.Depth = 8
	sum, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replays == 0 || sum.Branches == 0 {
		t.Fatalf("exploration did not explore: %+v", sum)
	}
	if sum.ViolatingPaths != 0 || sum.Counterexample != nil {
		t.Fatalf("clean config violated: %d paths, ce=%+v", sum.ViolatingPaths, sum.Counterexample)
	}
	if sum.Completed == 0 {
		t.Fatal("no path completed — the honest path must finish")
	}
	if sum.Halted == 0 || sum.Refused == 0 {
		t.Fatalf("adversary never triggered a defence: halted=%d refused=%d", sum.Halted, sum.Refused)
	}
	if sum.HostilePaths == 0 {
		t.Fatal("no hostile path explored")
	}
	if sum.Truncated {
		t.Fatal("bounded run reported truncation")
	}
}

// The teeth test: with TLB invalidation suppressed (the seeded known-bad
// mutation), the checker must find the stale-TLB violation, minimize it to
// the single revoke+probe pick, and the counterexample must replay into
// the same violation with a frozen post-mortem.
func TestExploreFindsBrokenTLBViolation(t *testing.T) {
	cfg := Defaults()
	cfg.Depth = 4
	cfg.BrokenTLB = true
	sum, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ce := sum.Counterexample
	if sum.ViolatingPaths == 0 || ce == nil {
		t.Fatalf("broken-TLB mutation not caught: %+v", sum)
	}
	if !ce.Minimized {
		t.Fatal("counterexample not minimized")
	}
	nonDefault := 0
	for _, p := range ce.Picks {
		if p != 0 {
			nonDefault++
		}
	}
	if nonDefault != 1 {
		t.Fatalf("minimization should isolate the single hostile pick, got picks %v", ce.Picks)
	}
	found := false
	for _, v := range ce.Violations {
		if strings.Contains(v, "stale-tlb") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations missing the stale-TLB finding: %v", ce.Violations)
	}

	// Replayability: the picks alone reproduce the violation, and the
	// retained machine has the forensic post-mortem the auditor froze.
	res, err := Replay(ce.Config, ce.Picks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("replayed counterexample did not violate")
	}
	if res.CVM == nil || res.CVM.M.PostMortem() == nil {
		t.Fatal("replayed counterexample has no frozen post-mortem")
	}
}

// The parallel frontier must be scheduling-invariant: identical summaries
// (byte-for-byte) at any worker count.
func TestBFSWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []byte {
		cfg := Defaults()
		cfg.Depth = 10
		cfg.Workers = workers
		sum, err := Explore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum.Config.Workers = 0 // the knob itself may differ; results must not
		b, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b4 := run(1), run(4)
	if string(b1) != string(b4) {
		t.Fatalf("summaries diverge across worker counts:\n1: %s\n4: %s", b1, b4)
	}
}

// Replaying the same picks twice reproduces the identical path: same
// choice trace, same outcome, same evidence.
func TestReplayDeterminism(t *testing.T) {
	cfg := Defaults()
	picks := []int{0, 1, 0, 1}
	a, err := Replay(cfg, picks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(cfg, picks)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Choices)
	jb, _ := json.Marshal(b.Choices)
	if string(ja) != string(jb) || a.Outcome != b.Outcome || a.Detail != b.Detail {
		t.Fatalf("replay diverged:\n%s %s %s\n%s %s %s", ja, a.Outcome, a.Detail, jb, b.Outcome, b.Detail)
	}
}

// The all-default path is the honest host: every task completes, nothing
// is hostile, nothing violates.
func TestHonestPathCompletes(t *testing.T) {
	cfg := Defaults()
	res, err := Replay(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("honest path outcome %s (%s), want completed", res.Outcome, res.Detail)
	}
	if res.Hostile || res.Injected {
		t.Fatal("honest path flagged hostile")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("honest path violations: %v", res.Violations)
	}
	want := uint64(cfg.Procs * cfg.Batches * cfg.BatchSize)
	if res.Ops != want {
		t.Fatalf("honest path completed %d ops, want %d", res.Ops, want)
	}
}

// Counterexamples survive a JSON round trip intact.
func TestCounterexampleJSONRoundTrip(t *testing.T) {
	cfg := Defaults()
	cfg.Depth = 4
	cfg.BrokenTLB = true
	sum, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Counterexample == nil {
		t.Fatal("no counterexample to round-trip")
	}
	var buf strings.Builder
	if err := sum.Counterexample.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCounterexample(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(sum.Counterexample)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Fatalf("round trip changed the counterexample:\n%s\n%s", a, b)
	}
}

// MaxReplays truncates exploration and says so.
func TestMaxReplaysTruncates(t *testing.T) {
	cfg := Defaults()
	cfg.Depth = 10
	cfg.MaxReplays = 5
	sum, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replays > 5 {
		t.Fatalf("replay budget overrun: %d", sum.Replays)
	}
	if !sum.Truncated {
		t.Fatal("truncated exploration not flagged")
	}
}

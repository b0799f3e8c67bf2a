// Package mc is the bounded model checker for Veil's hostile-interleaving
// claims: instead of sampling 30 seeds per attack suite, it treats the
// hypervisor as a nondeterministic adversary and enumerates *every*
// decision the host controls, up to a branch-depth bound k, asserting the
// internal/audit invariants on every explored path.
//
// Three choice points make up the adversary:
//
//   - sched-pick: which runnable VCPU runs the next slice (the scheduler's
//     weighted lottery replaced by an enumerating sched.Chooser);
//   - intr-mode: the delivery stance for each completion interrupt —
//     relay-to-untrusted, refuse-relay, misroute-vcpu or drop-interrupt,
//     chosen fresh per delivery (hv.SetInterruptModeChooser);
//   - rmp-inject: whether to fire a hostile RMPADJUST revocation of a
//     pre-warmed translation at this scheduling round, followed by a probe
//     through the stale TLB entry (the §8.3 stale-TLB window, movable to
//     every interleaving point).
//
// Everything in the simulator is deterministic given these choices, so the
// checker is replay-based (stateless-model-checking style): a path is a
// pick sequence, a state is reconstructed by booting a fresh CVM and
// replaying the picks, and a counterexample is a pick sequence anyone can
// re-run into a flight-recorder post-mortem. Exploration is exhaustive up
// to k branch points; beyond k every choice takes its honest/lowest
// default, so leaf tallies describe "all interleavings up to depth k, an
// honest host afterwards".
//
// The verdict the explorer checks on every path:
//
//   - the audit invariant catalog (rmp-tlb-epoch, vmsa-unreadable,
//     rmp-consistency, tlb-verdicts, vmpl3-wx) holds after every
//     scheduling round, and unwritten-zero, which reads all guest memory,
//     at path end;
//   - a revoked translation never serves another access (the probe faults);
//   - on a path where the host delivered honestly, every task completes —
//     no stall, no halt;
//   - on a hostile path, the run ends in a halt or an evidenced refusal
//     (DeniedIntrRoute in the flight ring) — never a silent deadlock.
package mc

import (
	"fmt"

	"veil/internal/hv"
)

// Config describes one model-checking run: the machine shape, the workload
// size, the adversary's enabled choice points, and the exploration bounds.
// The zero value is not runnable; call Explore/Replay with at least Depth
// set, or start from Defaults().
type Config struct {
	// VCPUs sizes the machine; one submitter process is placed per VCPU
	// (Procs of them, Procs <= VCPUs, default VCPUs).
	VCPUs int `json:"vcpus"`
	Procs int `json:"procs"`
	// Batches × BatchSize is each submitter's workload: a cvm ring tenant
	// on the interrupt completion channel (the lost-wakeup attack
	// surface), the same task the SMP experiment measures.
	Batches   int `json:"batches"`
	BatchSize int `json:"batch_size"`
	// Depth is the branch budget k: the explorer enumerates alternatives
	// at the first k choice points of a path; later points take their
	// default (honest) pick.
	Depth int `json:"depth"`
	// DrainLatency is the scheduler's drain pickup delay in rounds; > 1
	// opens the window where a victim blocks before its drain fires.
	DrainLatency int `json:"drain_latency"`
	// MemBytes / LogPages size the CVM (defaults 24 MiB / 8).
	MemBytes uint64 `json:"mem_bytes"`
	LogPages uint64 `json:"log_pages"`
	// Seed feeds the deterministic boot key material; every path replays
	// the identical machine.
	Seed int64 `json:"seed"`
	// MaxSteps bounds one path's scheduling rounds (liveness backstop).
	MaxSteps int `json:"max_steps"`

	// RMPInject enables the hostile RMPADJUST injection choice point;
	// IntrModes enables the per-delivery interrupt-mode choice point.
	// Schedule enumeration is always on.
	RMPInject bool `json:"rmp_inject"`
	IntrModes bool `json:"intr_modes"`
	// BrokenTLB boots every machine with TLB invalidation suppressed
	// (snp.SetBrokenTLBNoInvalidate) — the seeded known-bad mutation the
	// teeth test uses to prove the checker can find a violation.
	BrokenTLB bool `json:"broken_tlb,omitempty"`

	// Workers bounds the explorer's parallelism (<=0: GOMAXPROCS; 1 is the
	// sequential explorer); it is an execution knob that cannot affect
	// results, so it is excluded from JSON — summaries byte-compare across
	// worker counts.
	Workers int `json:"-"`
	// NoDedup disables visited-state pruning (paranoid mode: the dedup
	// fingerprint is a 64-bit hash of the logical state, so a collision
	// could in principle hide a branch).
	NoDedup bool `json:"no_dedup,omitempty"`
	// MaxReplays truncates exploration after this many path replays
	// (0 = unbounded). A truncated summary says so.
	MaxReplays uint64 `json:"max_replays,omitempty"`
}

// Defaults is the 2-VCPU, 2-process configuration the ROADMAP item names:
// two submitters, one interrupt-completed batch each, every adversary
// choice point armed.
func Defaults() Config {
	return Config{
		VCPUs: 2, Procs: 2, Batches: 1, BatchSize: 2,
		Depth: 6, DrainLatency: 2,
		MemBytes: 24 << 20, LogPages: 8, Seed: 777,
		MaxSteps:  512,
		RMPInject: true, IntrModes: true,
	}
}

// withDefaults fills unset fields so partially-specified configs (e.g. a
// counterexample file from an older build) stay runnable.
func (c Config) withDefaults() Config {
	d := Defaults()
	if c.VCPUs <= 0 {
		c.VCPUs = d.VCPUs
	}
	if c.Procs <= 0 || c.Procs > c.VCPUs {
		c.Procs = c.VCPUs
	}
	if c.Batches <= 0 {
		c.Batches = d.Batches
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.Depth < 0 {
		c.Depth = 0
	}
	if c.DrainLatency <= 0 {
		c.DrainLatency = d.DrainLatency
	}
	if c.MemBytes == 0 {
		c.MemBytes = d.MemBytes
	}
	if c.LogPages == 0 {
		c.LogPages = d.LogPages
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = d.MaxSteps
	}
	return c
}

// Choice is one resolved nondeterministic decision on a path: which choice
// point fired, how many alternatives the adversary had, and which it took.
// A pick sequence is the whole identity of a path — replaying it against
// the same Config reproduces the run bit for bit.
type Choice struct {
	Point string `json:"point"`           // "sched-pick" | "intr-mode" | "rmp-inject"
	Arity int    `json:"arity"`           // alternatives enabled at this point
	Pick  int    `json:"pick"`            // the one taken (0 = honest/lowest default)
	Label string `json:"label,omitempty"` // human-readable name of the pick
}

func (ch Choice) String() string {
	return fmt.Sprintf("%s %d/%d (%s)", ch.Point, ch.Pick, ch.Arity, ch.Label)
}

// driver feeds a scripted pick prefix to a running instance and records
// the full choice trace plus a pre-choice state fingerprint per point.
// Choice points with a single alternative are not nondeterminism and are
// neither recorded nor branched.
type driver struct {
	prefix []int
	hashFn func() uint64
	trace  []Choice
	hashes []uint64
}

// choose resolves one choice point: scripted while inside the prefix, the
// default 0 beyond it.
func (d *driver) choose(point string, arity int, label func(int) string) int {
	if arity <= 1 {
		return 0
	}
	pick := 0
	if pos := len(d.trace); pos < len(d.prefix) {
		pick = d.prefix[pos]
		if pick < 0 || pick >= arity {
			// A stale counterexample replayed against a drifted model;
			// clamp to the last alternative so the divergence is loud in
			// the trace rather than a panic.
			pick = arity - 1
		}
	}
	var h uint64
	if d.hashFn != nil {
		h = d.hashFn()
	}
	d.hashes = append(d.hashes, h)
	d.trace = append(d.trace, Choice{Point: point, Arity: arity, Pick: pick, Label: label(pick)})
	return pick
}

// Choice-point names.
const (
	PointSchedPick = "sched-pick"
	PointIntrMode  = "intr-mode"
	PointRMPInject = "rmp-inject"
)

func intrModeLabel(i int) string { return hv.InterruptMode(i).String() }

// fnv1a mixing for the dedup fingerprint (deterministic across processes,
// unlike maphash).
const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime
	}
	return h
}

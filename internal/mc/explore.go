// The exploration engine: enumerate every pick sequence of the bounded
// choice tree by replaying prefixes against fresh machines. One replay
// covers one full path (its prefix, then defaults); the branch points
// along the executed suffix seed the next prefixes. Visited-state dedup
// prunes subtrees rooted at an already-seen (fingerprint, remaining-budget)
// pair — two interleavings converging on the same logical state have
// isomorphic futures, so only the first is expanded.
package mc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Summary is Explore's result. Deliberately free of wall-clock or host
// fields: two runs of the same Config produce byte-identical summaries
// (at any worker count), so exploration statistics are replayable
// claims a CI gate can diff.
type Summary struct {
	Config Config `json:"config"`

	// Replays counts machine boots during exploration; MinimizeReplays the
	// extra boots counterexample minimization spent.
	Replays         uint64 `json:"replays"`
	MinimizeReplays uint64 `json:"minimize_replays,omitempty"`
	// Branches counts branch points expanded; DedupHits counts branch
	// points skipped because their pre-choice state was already visited
	// with at least the same remaining budget.
	Branches  uint64 `json:"branches"`
	DedupHits uint64 `json:"dedup_hits"`

	// Outcome tallies over explored paths.
	Completed    uint64 `json:"completed"`
	Halted       uint64 `json:"halted"`
	Refused      uint64 `json:"refused"`
	HostilePaths uint64 `json:"hostile_paths"` // paths where the adversary acted

	// ViolatingPaths counts paths that broke an invariant; the first one
	// found (in canonical order) is carried as the counterexample.
	ViolatingPaths uint64          `json:"violating_paths"`
	Counterexample *Counterexample `json:"counterexample,omitempty"`

	// MaxPrefix is the longest prefix expanded; Truncated is set when
	// MaxReplays cut exploration short of the depth bound.
	MaxPrefix int  `json:"max_prefix"`
	Truncated bool `json:"truncated,omitempty"`
}

type node struct{ prefix []int }

// visitKey identifies a branch point for dedup: the pre-choice state
// fingerprint folded with the remaining branch budget (the same state with
// less budget has a smaller subtree — only an equal-or-larger visit
// subsumes it; folding the budget in keeps the check O(1) and sound).
func visitKey(hash uint64, remaining int) uint64 {
	return fnvMix(hash, uint64(remaining))
}

// Explore enumerates the choice tree of cfg up to cfg.Depth branch points
// and tallies every path. It goes level by level: the frontier at depth d
// is replayed by a worker pool and merged canonically, so the tallies are
// identical for any worker count and the first counterexample found is a
// shortest one. Exploration stops early once a violating path is found
// (its generation is still merged completely, so the tallies stay
// deterministic); the violation comes back minimized and replayable.
func Explore(cfg Config) (Summary, error) {
	cfg = cfg.withDefaults()
	sum := Summary{Config: cfg}
	visited := make(map[uint64]struct{})

	tally := func(r *pathRun) {
		switch r.outcome {
		case OutcomeCompleted:
			sum.Completed++
		case OutcomeHalted:
			sum.Halted++
		case OutcomeRefused:
			sum.Refused++
		}
		if r.hostile() {
			sum.HostilePaths++
		}
		if len(r.violations) > 0 {
			sum.ViolatingPaths++
			if sum.Counterexample == nil {
				sum.Counterexample = ceFromRun(cfg, r)
			}
		}
	}

	// expand walks one replayed path's branch points from its prefix end
	// to the depth bound and emits child prefixes, claiming dedup keys in
	// canonical order. Returns the children in deterministic order.
	expand := func(n node, r *pathRun) []node {
		var children []node
		for i := len(n.prefix); i < len(r.trace) && i < cfg.Depth; i++ {
			ch := r.trace[i]
			if ch.Arity <= 1 {
				continue
			}
			sum.Branches++
			key := visitKey(r.hashes[i], cfg.Depth-i)
			if !cfg.NoDedup {
				if _, ok := visited[key]; ok {
					sum.DedupHits++
					continue
				}
				visited[key] = struct{}{}
			}
			base := r.picksThrough(i)
			for j := 1; j < ch.Arity; j++ {
				child := make([]int, i+1)
				copy(child, base)
				child[i] = j
				children = append(children, node{prefix: child})
			}
		}
		return children
	}

	budgetLeft := func(want int) int {
		if cfg.MaxReplays == 0 {
			return want
		}
		left := int64(cfg.MaxReplays) - int64(sum.Replays)
		if left < int64(want) {
			sum.Truncated = true
			if left < 0 {
				left = 0
			}
			return int(left)
		}
		return want
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	frontier := []node{{}}
	for len(frontier) > 0 {
		if want := budgetLeft(len(frontier)); want < len(frontier) {
			frontier = frontier[:want]
		}
		if len(frontier) == 0 {
			break
		}
		results, err := expandLevel(cfg, frontier, workers)
		if err != nil {
			return sum, err
		}
		sum.Replays += uint64(len(frontier))
		// Canonical merge: walk the frontier in order, single-threaded.
		// Dedup claims and tallies happen here, so the outcome is
		// independent of which worker replayed which node when.
		var next []node
		for i, n := range frontier {
			if len(n.prefix) > sum.MaxPrefix {
				sum.MaxPrefix = len(n.prefix)
			}
			tally(results[i])
			if sum.Counterexample != nil {
				continue // finish tallying this level, stop branching
			}
			next = append(next, expand(n, results[i])...)
		}
		if sum.Counterexample != nil {
			break
		}
		frontier = next
	}

	if sum.Counterexample != nil {
		n, err := sum.Counterexample.minimize(cfg)
		if err != nil {
			return sum, err
		}
		sum.MinimizeReplays = n
	}
	return sum, nil
}

// expandLevel replays every frontier node through a self-scheduling worker
// pool: workers steal the next unclaimed frontier index off a shared
// atomic cursor, so a slow replay never idles the other workers. Results
// land at their node's index — the canonical merge above never observes
// scheduling order.
func expandLevel(cfg Config, frontier []node, workers int) ([]*pathRun, error) {
	if workers > len(frontier) {
		workers = len(frontier)
	}
	results := make([]*pathRun, len(frontier))
	errs := make([]error, len(frontier))
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&cursor, 1) - 1
				if i >= int64(len(frontier)) {
					return
				}
				results[i], errs[i] = runPath(cfg, frontier[i].prefix, false)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mc: replay %v: %w", frontier[i].prefix, err)
		}
	}
	return results, nil
}

// picksThrough returns the executed picks of trace positions [0, i) — the
// base a child prefix extends.
func (r *pathRun) picksThrough(i int) []int {
	picks := make([]int, i)
	for k := 0; k < i; k++ {
		picks[k] = r.trace[k].Pick
	}
	return picks
}

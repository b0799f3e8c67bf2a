# Veil reproduction — convenience targets. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build test vet race bench attacks demo experiments boot-full examples trace golden-check audit bench-obs bench-batch bench-mempath bench-smp bench-fleet parallel-check mc-smoke clean

all: vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full table/figure regeneration (Fig. 4/5/6 + §9.1 micro + ablations).
experiments:
	$(GO) run ./cmd/veil-bench -experiment all

# The paper's full-scale 2 GiB boot experiment (sweeps 524288 pages; about
# 0.05 s of host time on a 2-vCPU x86-64 host, since PVALIDATE skips pages
# nothing wrote and the sweep writes only the events the flight ring keeps).
boot-full:
	$(GO) run ./cmd/veil-bench -experiment boot -mem 2048

# Byte-compare every deterministic committed result (fig4/fig5 goldens in
# testdata/goldens, BENCH_batch/mempath/smp/fleet.json) against a fresh
# run. Any drift in the virtual-cycle model — e.g. from a change that was
# supposed to be behaviour-preserving — fails this target. It is the
# tier-1 test cmd/veil-bench.TestCommittedGoldens.
golden-check:
	$(GO) test -count=1 -run TestCommittedGoldens ./cmd/veil-bench

# Tables 1 & 2 and the §8.3 validation attacks, executed live.
attacks:
	$(GO) run ./cmd/veil-attack -suite all

# Run the security-invariant auditor both ways (docs/OBSERVABILITY.md):
# attacks under audit must leave machine-checkable evidence (veil-attack
# exits 1 on any silently-defended attack), and the clean demo + fig4
# evaluation workload must stay violation-free (both exit 1 otherwise).
audit:
	$(GO) run ./cmd/veil-attack -suite all -audit -evidence
	$(GO) run ./cmd/veil-sim -audit
	$(GO) run ./cmd/veil-bench -experiment fig4 -iters 500 -audit

# Regenerate the committed observability-tax measurement (BENCH_obs.json).
# Longer runs than the -experiment all default: the auditor bound is a
# wall-clock ratio, so the measured window must swamp scheduler jitter.
bench-obs:
	$(GO) run ./cmd/veil-bench -experiment obs -iters 30000 -json BENCH_obs.json

# Regenerate the committed batched-invocation amortization curve
# (BENCH_batch.json). Fully deterministic with -stable: every value is
# virtual cycles, so TestCommittedGoldens byte-compares it.
bench-batch:
	$(GO) run ./cmd/veil-bench -experiment batch -stable -json BENCH_batch.json

# Regenerate the committed memory-path measurement (-stable zeroes the one
# wall-clock field so the file is reproducible).
bench-mempath:
	$(GO) run ./cmd/veil-bench -experiment mempath -stable -json BENCH_mempath.json

# Regenerate the committed SMP scheduling measurement (BENCH_smp.json):
# poll-vs-interrupt completion costs and cross-VCPU fairness. Every value is
# virtual cycles from fixed seeds, so no -stable is needed. Its determinism
# across runs and GOMAXPROCS is asserted by internal/bench.TestSMPDeterministic.
bench-smp:
	$(GO) run ./cmd/veil-bench -experiment smp -json BENCH_smp.json

# Regenerate the committed multi-CVM fleet measurement (BENCH_fleet.json):
# attested VeilS-Channel sessions over the simulated fabric plus local
# VeilS-Log tenants. Every value is virtual cycles from fixed seeds; the
# merged Chrome trace, Prometheus page and causal view are pinned by their
# sha256 in the file. Their determinism across runs and GOMAXPROCS is
# asserted by internal/bench.TestFleetDeterministic.
bench-fleet:
	$(GO) run ./cmd/veil-bench -experiment fleet -json BENCH_fleet.json

# The parallel experiment runner must not change results: shard the full
# suite across 4 workers and byte-compare against the sequential run.
parallel-check:
	$(GO) run ./cmd/veil-bench -experiment all -iters 500 -stable -json /tmp/veil-bench-j1.json -j 1
	$(GO) run ./cmd/veil-bench -experiment all -iters 500 -stable -json /tmp/veil-bench-j4.json -j 4
	cmp /tmp/veil-bench-j1.json /tmp/veil-bench-j4.json
	$(GO) run ./cmd/veil-bench -compare /tmp/veil-bench-j1.json /tmp/veil-bench-j4.json

# The bounded model-check gate (docs/MODELCHECK.md): exhaustively explore
# every schedule pick × per-delivery interrupt mode × RMPADJUST injection
# timing on the 2-VCPU 2-process config up to the gate depth — the run
# must explore >0 states with 0 violations — then prove the checker has
# teeth: with TLB invalidation suppressed (the seeded known-bad mutation)
# it must find the stale-TLB violation, minimize it, and the written
# counterexample must replay back into the same violation.
mc-smoke:
	$(GO) run ./cmd/veil-mc -depth 8
	$(GO) run ./cmd/veil-mc -depth 4 -broken-tlb -expect-violation -ce /tmp/veil-mc-ce.json
	$(GO) run ./cmd/veil-mc -replay /tmp/veil-mc-ce.json -expect-violation

# End-to-end demo of all protected services.
demo:
	$(GO) run ./cmd/veil-sim

# Capture a Chrome trace_event timeline of the full demo and sanity-check
# it (see docs/OBSERVABILITY.md; open the JSON in Perfetto).
trace:
	$(GO) run ./cmd/veil-sim -trace /tmp/veil-trace.json
	$(GO) run ./cmd/veil-trace-check /tmp/veil-trace.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/shielded-kv
	$(GO) run ./examples/secure-audit
	$(GO) run ./examples/kernel-module

bench:
	$(GO) test -bench=. -benchmem

clean:
	$(GO) clean ./...

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the root of the checkout:
#
#   bash benchmark/run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
#
# Everything the Go toolchain writes (build cache, temporary files, its own
# configuration and telemetry) stays under .bench_build in the checkout, and
# the toolchain is kept off the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd benchmark && go build -o "$out/veil-benchmark" .)
exec "$out/veil-benchmark" "$@"

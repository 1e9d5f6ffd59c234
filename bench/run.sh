#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash bench/run.sh --workload run-native --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root: bench is a package of the root module.
# The build cache and the binary live in .bench_build/ (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout
# and no toolchain or module is fetched from the network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$out/agentring-bench" ./bench
exec "$out/agentring-bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it; the
# command BENCHMARK.json names. Run from the root of the checkout:
#
#   bash bench/run.sh --workload query-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build writes, the Go build cache included, stays under
# .bench_build in the checkout, and nothing is fetched from a network.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"

#!/bin/sh
# The command BENCHMARK.json names: builds the harness from source into
# .bench_build/ of the checkout it is run from (build cache and scratch
# space included, so nothing is written outside the checkout) and runs
# it with the arguments given. `go run ./bench <args>` does the same
# with the toolchain's usual cache.
set -e
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" go build -o "$out/bench" ./bench
exec "$out/bench" "$@"

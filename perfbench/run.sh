#!/usr/bin/env bash
# Entry point of the LOOM benchmark (see BENCHMARK.md):
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds loom-serve and the load generator from the checkout's source
# into .bench_build (a no-op when nothing changed) and runs the generator.
# Everything the run writes, the Go build cache included, stays in
# .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root" && go build -o "$build/loom-serve" ./cmd/loom-serve)
(cd "$here/_bench" && go build -o "$build/loom-perfbench" .)
exec "$build/loom-perfbench" -root "$root" "$@"

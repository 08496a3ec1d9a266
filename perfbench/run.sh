#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload rtl-permanent --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Every build artefact, cache and data
# directory stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

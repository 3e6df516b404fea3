#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it once:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build outputs, the Go build cache and the
# traced run's temporary CPU profile stay under .bench_build/ so nothing
# outside the checkout is written.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export TMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#   bash mpibench/run.sh --workload small-msg --seed 1 --seconds 20 --trace 0
# The binary, the Go build cache and temporary files stay in
# .bench_build/ under the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/mpibench" && go build -o "$build/mpibench" .)
exec "$build/mpibench" "$@"

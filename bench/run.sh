#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (Go build cache, temp files, the binary) stays under .bench_build/ in the
# current directory, which must be the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/ishare-bench" .
exec "$build/ishare-bench" "$@"

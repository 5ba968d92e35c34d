#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, in this directory) and
# runs it from the repository root. Everything the build writes stays
# inside the checkout, under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
mkdir -p .bench_build/bin
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off
go build -C bench -o "$root/.bench_build/bin/bench" .
exec "$root/.bench_build/bin/bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write (Go build cache, binary, outbox and
# sink temp dirs) stays under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOENV=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/quarkbench" .
exec "$build/quarkbench" "$@"

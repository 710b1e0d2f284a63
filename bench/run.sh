#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run leave behind stays inside the checkout: the Go build cache and
# the binary under .bench_build/, stores and span files under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go -C "$here" build -o "$build/flodb-bench" .
exec "$build/flodb-bench" -out "$here/out" "$@"

#!/usr/bin/env bash
# Builds the benchmark and the holocleand it drives from the sources of
# this checkout, then runs the benchmark from the checkout's root. Every
# file it writes — Go's build cache included — stays inside the checkout,
# under .bench_build/ and bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -o "$build/bin/holocleand" ./cmd/holocleand
go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"

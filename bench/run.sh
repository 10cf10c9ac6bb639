#!/usr/bin/env bash
# Builds the benchmark driver from bench/ and runs it with the given
# arguments. Everything the Go toolchain writes stays inside the checkout:
# the build cache and both binaries live under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"

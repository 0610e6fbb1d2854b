#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run leave behind (Go build cache, binary, temp files) stays under
# .bench_build/ in the checkout this script belongs to.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false TMPDIR="$out/tmp"
go -C "$root/bench" build -o "$out/dgcbench" .
exec "$out/dgcbench" "$@"

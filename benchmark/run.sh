#!/usr/bin/env bash
# Builds esr-server and the benchmark from source, then runs the
# benchmark with the caller's arguments. Everything it writes — Go's
# build cache included — stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off
build_start=$(date +%s%N)
(cd "$root" && go build -o "$out/esr-server" ./cmd/esr-server) >&2
(cd "$root/benchmark" && go build -o "$out/esr-benchmark" .) >&2
build_ns=$(($(date +%s%N) - build_start))
cd "$root"
exec "$out/esr-benchmark" -server-bin "$out/esr-server" -work-dir "$out" -build-ns "$build_ns" "$@"

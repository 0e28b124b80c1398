#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash repobench/run.sh --workload sim-1m --seed 1 --seconds 30 --trace 0
# Run from the repository root. Build cache, temporaries and span dumps stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/gotmp" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/gotmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$root/repobench" build -o "$build/repobench" . >&2
exec "$build/repobench" -tmpdir "$build/tmp" "$@"

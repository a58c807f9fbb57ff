#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the checkout root:
#
#   bash bench/run.sh --workload grid-k2 --seed 1 --seconds 20 --trace 0
#
# The benchmark is its own Go module (bench/go.mod) that builds against
# the checkout it sits in. Every build cache, binary and temporary file
# stays under .bench_build/ in the checkout, and the Go toolchain is kept
# offline.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"

#!/usr/bin/env bash
# The command BENCHMARK.json names, run from the root of a checkout:
#
#   bash cmd/kvell-e2e/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds kvell-e2e from source and runs one benchmark run of one workload.
# Everything the Go toolchain and the benchmark write (build cache, temporary
# files, the binary) goes under .bench_build in the checkout.
set -euo pipefail

build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off

go build -C cmd/kvell-e2e -o "$build/kvell-e2e" .

# bench sets GOMAXPROCS and GODEBUG for itself (hostProcs, hostGODEBUG in
# main.go) by re-executing once.
exec "$build/kvell-e2e" bench "$@"

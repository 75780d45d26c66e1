#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds symbench from the source of the
# checkout it stands in and runs it with the driver's arguments:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write — the toolchain's cache, temporary
# files, the binary, the span file of a traced run — stays under .bench_build/
# in the checkout. Nothing is downloaded: the benchmark's module needs only
# the checkout (replace sympack => ../) and the standard library.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOPATH=$build/gopath TMPDIR=$build/tmp
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
cd "$root"
go -C bench build -o "$build/symbench" ./symbench
exec "$build/symbench" "$@"

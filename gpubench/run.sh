#!/usr/bin/env bash
# Builds the benchmark and the gputlbd daemon from the checkout's sources
# into .bench_build/, then runs the benchmark with the given arguments:
#
#   bash gpubench/run.sh --workload corun-churn --seed 1 --seconds 28 --trace 0
#
# Run it from the root of a checkout. Every build product, the Go build
# cache and every file a run writes stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go -C gpubench build -o "$out/gpubench" .
go -C gpubench build -o "$out/gputlbd" gputlb/cmd/gputlbd

exec "$out/gpubench" -gputlbd "$out/gputlbd" "$@"

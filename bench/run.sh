#!/usr/bin/env bash
# The benchmark's one command: build the runner and cmid from source,
# then exec the runner with the arguments given.
#
#   bash bench/run.sh                       every workload, every metric
#   bash bench/run.sh --workload notify_local --seed 3 --seconds 15 --trace 0
#   bash bench/run.sh -aa 5                 A/A calibration
#
# `go build` + exec, never `go run`: go run's child outlives a killed
# parent. Everything the build and the run write stays under
# .bench_build/ in the checkout (go's caches included).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off

t0=$(date +%s%N)
go -C "$here" build -o "$out/bin/" . github.com/mcc-cmi/cmi/cmd/cmid
t1=$(date +%s%N)
build_s=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }')

cd "$root"
exec "$out/bin/bench" -cmid "$out/bin/cmid" -work "$out" -build-s "$build_s" "$@"

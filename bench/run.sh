#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload fed-join --seed 7 --seconds 10 --trace 0
#   bash bench/run.sh --seed 7            # all four, untraced then traced
#   bash bench/run.sh --calibrate
#
# The working directory becomes the checkout root. Go's build cache and the
# binary live under .bench_build/ there, so nothing outside the checkout is
# written, and no module is ever downloaded.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
export XDG_CONFIG_HOME="$root/.bench_build/config" # where the go command keeps its counters
mkdir -p "$root/.bench_build"
go -C bench build -o "$root/.bench_build/nimble-bench" .
exec "$root/.bench_build/nimble-bench" "$@"

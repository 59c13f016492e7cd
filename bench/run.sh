#!/usr/bin/env bash
# Builds the benchmark once into .bench_build/ (inside the checkout: the
# Go build cache goes there too, so nothing is written outside it) and
# runs it with the arguments given.
#
#   bash bench/run.sh --workload swap_warm --seed 1 --seconds 16 --trace 0
#       one workload, BENCHMARK.json's protocol: the result object is the
#       last line of standard output
#   bash bench/run.sh [-seed N] [-seconds S] [-only W] [-out F]
#       the whole suite, untraced then traced, one child process per
#       workload, one JSON document
#   bash bench/run.sh -aa 2
#       two independent sets of the untraced suite, compared to the bounds
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
go build -o "$out/snapify-bench" ./bench

exec "$out/snapify-bench" -spans-dir "$out" "$@"

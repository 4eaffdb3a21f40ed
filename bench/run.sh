#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark (see bench/README.md):
#
#   bash bench/run.sh                                   # all workloads, 3 runs each, traced
#   bash bench/run.sh --workload campaign --seed 7 --seconds 20 --trace 0
#   bash bench/run.sh --compare A.json B.json
#
# The build cache, the binary, temporary stores and result files all
# live under .bench_build/ in the current directory, so nothing is
# read or written outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$root/bench" && go build -o "$build/uniserver-bench" .)
exec "$build/uniserver-bench" "$@"

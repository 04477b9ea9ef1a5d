#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run from the
# repository root; arguments go to the benchmark, for example
#
#   bash perfbench/run.sh --workload ref-campaign --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the binary, the
# Go build cache, span dumps and scratch journals.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)

exec "$build/perfbench" --out "$build" "$@"

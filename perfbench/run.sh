#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload battery --seed 1 --seconds 30 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, telemetry)
# stays under .bench_build in the checkout. The runner module resolves the
# simulator through `replace spottune => ../`, so the build fails, and the
# script exits non-zero without a result, when the simulator sources are
# missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

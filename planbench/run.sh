#!/usr/bin/env bash
# Builds the planner benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash planbench/run.sh --workload estate-batch --seed 1 --seconds 45 --trace 0
#
# Every build and run artefact (Go build cache, binary, span files,
# fingerprints) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$root/planbench" && go build -o "$out/planbench" .)
exec "$out/planbench" -out "$out" "$@"

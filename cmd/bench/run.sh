#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the given flags.
#
# Run from the repository root:
#
#	bash cmd/bench/run.sh --workload stuckat-fwd --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# stores and journals, the binary itself) stays under .bench_build/ in the
# current directory, and no module is fetched: the benchmark is built from
# this checkout alone, and fails to build outside one.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd cmd/bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"

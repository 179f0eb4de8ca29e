#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root; arguments pass through, e.g.
#
#   bash e2ebench/run.sh --workload solve --seed 20040324 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, store directories, span
# files) goes under .bench_build in the current directory.
set -euo pipefail
work="$PWD/.bench_build"
mkdir -p "$work/gocache" "$work/gotmp"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOPATH="$work/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd e2ebench && go build -o "$work/e2ebench" .)
exec "$work/e2ebench" --dir "$work" "$@"

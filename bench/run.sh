#!/usr/bin/env bash
# Builds tsbench from source and runs it with the given arguments.
#
# Run from the repository root:
#
#   bash bench/run.sh --workload canonical --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary, and every temporary file (result stores,
# profiles, spans) stay under .bench_build/ in the current directory, and
# the build never touches the network. Without the repository's sources
# beside bench/ the build fails and nothing is printed on stdout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$build/tsbench" ./tsbench) >&2
exec "$build/tsbench" "$@"

#!/usr/bin/env bash
# Builds the admission benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash admbench/run.sh --workload paper-load --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build cache, binary, journals and span
# files all stay under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd admbench && go build -o "$out/admbench" .) >&2
exec "$out/admbench" --workdir "$out" "$@"

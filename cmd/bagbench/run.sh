#!/bin/sh
# Builds bagbench from source and runs it with the given flags. Run it
# from the repository root:
#
#   sh cmd/bagbench/run.sh --workload serve-hist --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every scratch file go under
# .bench_build/ in the current directory, so a run writes nothing
# outside the checkout. A failed build exits non-zero before any result
# is printed.
set -e
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go -C cmd/bagbench build -o "$out/bagbench" .
exec "$out/bagbench" -tmpdir "$out/tmp" "$@"

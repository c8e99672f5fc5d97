#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache included, lands in .bench_build
# under the current directory, so the benchmark writes nothing outside
# the checkout. Without the repository's sources beside perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" # go's config and telemetry counters
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

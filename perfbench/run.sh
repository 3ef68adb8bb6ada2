#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload offline-match --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the tree: the Go build cache, the perfbench binary, per-run scratch
# files and trace output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters)
# inside the tree as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark and the mhpolld daemon from this checkout, then
# runs the benchmark with the given arguments. Build caches, binaries,
# temp files, spools and trace output all stay under .bench_build/ at
# the repository root.
#
#   bash bench/run.sh                         # all workloads, 3 rotating rounds
#   bash bench/run.sh -workload dist-churn-5k -seed 1 -seconds 20 -trace 0
#   bash bench/run.sh -trace 1                # per-layer traced replay
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS=

# Build output goes to stderr: the last line of stdout is the result.
go build -o "$out/bin/mhpolld" ./cmd/mhpolld >&2
(cd bench && go build -o "$out/bin/bench" .) >&2

exec "$out/bin/bench" -mhpolld "$out/bin/mhpolld" "$@"

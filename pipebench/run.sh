#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash pipebench/run.sh --workload paper-suite --seed 1 --seconds 25 --trace 0
#
# Every build product, Go's caches and settings included, stays under
# .bench_build. Go telemetry is off so the build starts no sidecar
# process that could outlive it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/pipebench" && go build -o "$out/pipebench" .)
exec "$out/pipebench" "$@"

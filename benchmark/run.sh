#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments. Everything the build leaves behind stays under .bench_build/ in
# the checkout: the Go build cache, the go command's temporary files and its
# telemetry directory (which follows XDG_CONFIG_HOME).
#
# Telemetry is switched off in that directory before the go command runs: in
# its default "local" mode the first go command of the day in a fresh config
# directory starts a detached `go ** telemetry **` sidecar (its own session,
# never waited for) that outlives the build, even a build that fails at once
# because the checkout holds no go.mod.
set -euo pipefail
cd "$(dirname "$0")/.."
b="$PWD/.bench_build"
mkdir -p "$b/tmp" "$b/config/go/telemetry"
echo off > "$b/config/go/telemetry/mode"
export GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" XDG_CONFIG_HOME="$b/config" GOTOOLCHAIN=local
go build -o "$b/benchmark" ./benchmark
exec "$b/benchmark" "$@"

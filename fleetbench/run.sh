#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash fleetbench/run.sh --workload ate-rl --seed 1 --seconds 20 --trace 0
#
# Build cache, binary, run records and span dumps all stay under
# .bench_build/ in the current directory. The build needs the whole
# repository (the module replaces pbqprl with ../), so in a directory
# holding only the benchmark it fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export XDG_CONFIG_HOME="$build/config"

go build -C fleetbench -o "$build/fleetbench" .

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/fleetbench" --commit "$commit" --out "$build/fleetbench-out" "$@"

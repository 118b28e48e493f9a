#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it there.
# Everything the Go toolchain writes (build cache, telemetry, the binary)
# goes under bench/.bench_build, so the run needs no HOME and leaves
# nothing outside this directory; the harness itself writes only bench/out/.
set -euo pipefail
dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$dir/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
cd "$dir"
go build -o "$build/detector-bench" .
exec "$build/detector-bench" "$@"

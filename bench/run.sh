#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Started
# from the repository root: bash bench/run.sh [flags]. Everything the build
# writes (build cache, temporaries, the binary) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME moves the go command's telemetry counters in here too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/emcast-bench" .)
exec "$build/emcast-bench" "$@"

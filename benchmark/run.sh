#!/usr/bin/env bash
# Builds the benchmark and the cmd/alexkv child inside the checkout and
# runs the benchmark with the arguments given. Run from the repository
# root: bash benchmark/run.sh [flags]. Everything it writes lands in
# .bench_build/ (build cache, binaries, data dirs) and benchmark/out/.
set -euo pipefail
root=$(pwd)
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
# Keep the toolchain's own files (build cache, temporaries, telemetry
# counters under the user configuration directory) in the checkout too.
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config
go build -o "$build/bin/alexkv" ./cmd/alexkv
go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -alexkv "$build/bin/alexkv" -tmp "$build/tmp" "$@"

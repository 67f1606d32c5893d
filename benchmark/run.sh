#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it. The Go
# build cache and the binary live under .bench_build inside the checkout, so
# nothing is read or written outside it.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"

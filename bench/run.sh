#!/usr/bin/env bash
# Builds gkrig from source and runs it with the caller's arguments. This is
# the command BENCHMARK.json names. The binary and everything the go tool
# writes (build cache included) stay in .bench_build/ inside the checkout; a
# second call finds the build up to date and only runs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$build/gkrig" ./bench
exec "$build/gkrig" "$@"

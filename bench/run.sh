#!/usr/bin/env bash
# Launcher of the benchmark: builds and runs bench/ (module spb/bench) with the
# Go build cache, GOPATH and the toolchain's config directory (telemetry
# counters, `go env -w` settings) kept inside the checkout, so a run writes
# nothing outside it. Arguments go to the program unchanged; see
# bench/README.md.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -trimpath -o "$build/bin/spbbench" .
cd "$root"
exec "$build/bin/spbbench" "$@"

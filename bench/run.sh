#!/usr/bin/env bash
# Builds the ledger driver from source and runs it. Called from the root
# of a checkout (BENCHMARK.json names this script). Everything the Go
# toolchain writes — build cache, link temporaries, its telemetry
# counters — is redirected under .bench_build/ inside that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -C bench -o "$build/xqledger" .
exec "$build/xqledger" "$@"

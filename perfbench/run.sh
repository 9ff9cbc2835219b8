#!/usr/bin/env bash
# Builds the daemons and the benchmark from this checkout's source into
# .bench_build/ and runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ds-direct --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything it builds or writes
# stays under .bench_build/, the Go build cache included.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
# The go command's own config and telemetry files go to .bench_build too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go build -o "$build/bin/tdacd" ./cmd/tdacd
go build -o "$build/bin/tdac-router" ./cmd/tdac-router
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"

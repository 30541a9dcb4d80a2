#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-converge --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays inside the checkout: the Go build cache,
# module cache and tool config live under .bench_build, reports and traces
# under .bench_out.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod required)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
# With telemetry on, the go command may leave a background process running;
# the mode file lives under XDG_CONFIG_HOME, inside the checkout.
[ -f "$build/config/go/telemetry/mode" ] || go telemetry off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"

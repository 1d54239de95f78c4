#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload spill-sweep --seed 1 --seconds 20 --trace 0
#
# The build cache, the build's scratch files, the go command's own state
# (telemetry lives under the user config directory) and the binary go to
# .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

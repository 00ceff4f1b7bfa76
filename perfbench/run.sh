#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload bank-locked --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, temporary files, module cache,
# the go command's user configuration and telemetry, the binary) goes
# under .bench_build in the current directory, so nothing outside the
# checkout is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/gotmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

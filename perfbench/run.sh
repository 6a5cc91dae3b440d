#!/usr/bin/env bash
# Builds perfbench into .bench_build/ and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ckpt-natural --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temp files and the benchmark's data directories
# all live under .bench_build/, so a run touches nothing outside the
# checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"

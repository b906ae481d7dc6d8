#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every file the build and the run write
# (Go build cache, binary, the disk engine's data directory) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/ and the joinopt module must both be present)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash perfbench/run.sh --workload fleet-cnn-1k --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the module cache, temporary files and the binary go
# to .bench_build/ at the repository root, so a run writes nothing outside
# the checkout.
# Outside a full checkout the build fails and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

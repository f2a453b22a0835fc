#!/usr/bin/env bash
# Builds the CLASH benchmark from this checkout and runs it. Every build
# artefact (binary, Go build cache, span dumps) stays under .bench_build/ at
# the checkout root; the script must be started from that root.
#
#   bash perfbench/run.sh --workload mem-publish --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"

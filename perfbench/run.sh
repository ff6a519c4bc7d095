#!/usr/bin/env bash
# Builds codecompd, codecomprouter and the load generator (perfbench) from this
# checkout, then runs the load generator with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload hot_blocks --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (binaries,
# Go build cache) goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS= GOENV=off
mkdir -p "$out/bin"

go build -o "$out/bin/codecompd" ./cmd/codecompd
go build -o "$out/bin/codecomprouter" ./cmd/codecomprouter
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"

#!/usr/bin/env bash
# Entry point of the benchmark driver (BENCHMARK.json "command"):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the harness with the Go toolchain and runs it. Everything the build
# and the run write stays under bench/ (.build/ and out/): the Go build
# cache, module cache and toolchain config are pointed into bench/.build so a
# run reads and writes only inside its checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$PWD/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/sbqabench" ./cmd/sbqabench
exec "$build/sbqabench" "$@"

#!/usr/bin/env bash
# Builds the benchmark and cmd/shermand from source into benchmark/bin (every
# build product, Go's cache included, stays under benchmark/) and runs one
# workload. BENCHMARK.json names this script; all arguments go to the binary.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
export GOCACHE="$PWD/.gocache" GOPATH="$PWD/.gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o bin/shermand sherman/cmd/shermand
go build -o bin/bench .
exec bin/bench "$@"

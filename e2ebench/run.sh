#!/usr/bin/env bash
# Builds the daemon under test (cmd/bwsched) and the e2ebench harness
# from the source tree in the current directory, then runs the harness
# with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload submit-hot --seed 1 --seconds 6 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build. The
# harness and the daemon it starts run with GOMAXPROCS=1: wins must come
# from doing less work, not from running in parallel, and on a shared
# 2-vCPU host a single P each halved the run-to-run spread of
# throughput.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bwsched" ./cmd/bwsched
go build -C e2ebench -o "$out/e2ebench" .
GOMAXPROCS=1 exec "$out/e2ebench" -bin "$out/bwsched" -out "$out" "$@"

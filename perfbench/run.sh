#!/usr/bin/env bash
# Builds the benchmark runner and the qdcbench CLI from the sources of this
# checkout, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-default --seed 1 --seconds 10 --trace 0
#
# Binaries, the Go build cache and the benchmark's scratch files all live
# under .bench_build/, so the run writes nothing outside the checkout. Build
# output goes to standard error; the last line of standard output is the
# result.
set -euo pipefail

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly
mkdir -p "$out/bin" "$GOTMPDIR"

(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
go build -o "$out/bin/qdcbench" ./cmd/qdcbench >&2
exec "$out/bin/perfbench" "$@"

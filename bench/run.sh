#!/usr/bin/env bash
# Builds levperf from the sources in the current checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -seed 1 -out runs.jsonl      # all four workloads
#   bash bench/run.sh -compare a.jsonl b.jsonl
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, spans and the
# binary itself. Outside a full checkout (no go.mod at the root) the build
# fails and the script exits non-zero without running anything.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOMODCACHE="$out/modcache" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C bench build -buildvcs=false -o "$out/levperf" ./levperf
exec "$out/levperf" "$@"

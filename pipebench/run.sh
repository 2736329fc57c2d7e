#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#	bash pipebench/run.sh --workload abilene-netflow --seed 1 --seconds 30 --trace 0
#
# Build outputs (binary, Go build cache, and the go command's config and
# telemetry directory) stay under .bench_build/ in the checkout, so nothing
# is written outside it.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd pipebench && go build -o "$out/pipebench" .)
exec "$out/pipebench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash perfbench/run.sh --workload surface --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (the binary, the Go build cache, the
# go command's own state, the span files) stays under .bench_build in the
# checkout. The build needs the repository's module one directory up, so in a
# tree holding only the benchmark it fails before anything runs.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/config"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"

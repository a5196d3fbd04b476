#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; arguments pass through, for example:
#
#   bash e2ebench/run.sh --workload block-rw --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
if [[ ! -f go.mod || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (go.mod and e2ebench/go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local
# e2ebench is a module of its own (e2ebench/go.mod), so the root
# module's `go build ./...` and `go test ./...` leave it out.
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --workdir "$out" "$@"

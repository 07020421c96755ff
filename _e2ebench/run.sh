#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root, passing every argument through (see README.md).
# Build cache, binary, results and the journal stay under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd _e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" --out "$out/e2ebench" "$@"

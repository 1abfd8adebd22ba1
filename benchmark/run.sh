#!/usr/bin/env bash
# Builds the benchmark and replaces this shell with it, so the benchmark is
# one foreground process: no `go run` child is left behind to outlive it.
# Everything the build writes (binary, Go build cache, temp files, the go
# command's telemetry counters) stays in .bench_build/ at the root of the
# checkout, and nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bbmig-bench" .)
exec "$build/bbmig-bench" "$@"

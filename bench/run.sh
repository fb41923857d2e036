#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the toolchain writes (build cache, temporaries, the binary)
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the toolchain's own counters go here, not under $HOME
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/myrtus-bench" .)
cd "$root"
exec "$build/myrtus-bench" "$@"

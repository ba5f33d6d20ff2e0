#!/usr/bin/env bash
# Builds the SUT (./cmd/vn2) and the harness from the checkout's source into
# .bench_build/ and runs the harness. Everything — Go's build cache, module
# path, configuration and temporary files included — stays inside the
# checkout, and nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$build/" ./vn2bench github.com/wsn-tools/vn2/cmd/vn2)
exec "$build/vn2bench" -vn2 "$build/vn2" "$@"

#!/usr/bin/env bash
# Builds the benchmark (a module of its own, next to the program's) with a
# build cache inside the checkout, then runs it with the given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
b="$root/.bench_build"
# Everything the go command writes stays in the checkout (launch.go: goEnv).
export GOCACHE="$b/gocache" GOPATH="$b/gopath" XDG_CONFIG_HOME="$b/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
mkdir -p "$b/bin"
(cd "$root/bench" && go build -o "$b/bin/bench" .)
cd "$root"
exec "$b/bin/bench" "$@"

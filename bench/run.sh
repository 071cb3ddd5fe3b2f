#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the given arguments. The Go
# build cache lives there too, so nothing outside the checkout is written.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-modcacherw
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -C "$here" -o "$build/mdes-bench" .
exec "$build/mdes-bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark and cmd/batchmaker from the checkout this script sits
# in, then runs the benchmark with the given arguments. Everything it writes
# (Go build cache, binaries, scratch) stays under <checkout>/.bench_build.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
if [ ! -x "$build/benchmark" ]; then
	# This directory is a module of its own, so the repository's
	# `go build ./... && go test ./...` never reaches it. The first build in a
	# checkout therefore vets it and runs its unit tests (0.2 s, no workload):
	# a change to the repository that breaks the harness fails the benchmark
	# here, loudly, before a single number is measured.
	(cd "$here" && go vet . && go test . >&2)
fi
(cd "$here" && go build -o "$build/benchmark" .)
(cd "$root" && go build -o "$build/batchmaker" ./cmd/batchmaker)
exec "$build/benchmark" -root "$root" -bin "$build/batchmaker" "$@"

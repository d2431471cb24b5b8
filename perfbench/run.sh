#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload zipf3way --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind (binary, Go build cache) goes under
# .bench_build/ at the root of the checkout, which .gitignore names.
# Nothing is downloaded: the module's only dependency is the repository
# itself, through a replace directive.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
# The commit goes into the environment block of the files --out writes;
# a checkout that is not a git repository records none.
commit="$(git -C "$here" rev-parse --short=12 HEAD 2>/dev/null || true)"
env HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -C "$here" -ldflags "-X main.commit=$commit" -o "$build/perfbench" . >&2
exec "$build/perfbench" --catalog "$(dirname "$here")/BENCHMARK.json" "$@"

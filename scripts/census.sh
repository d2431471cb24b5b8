#!/usr/bin/env bash
# Prints every function of the rjoin module that no entry point reaches:
# the demo (plain, -lossy, -explain, and with -trace and -metrics-csv),
# every example, the experiment harness (with -csv) and the benchmark
# (end to end and --trace 1) are built with coverage over rjoin/...,
# run once each at small sizes and fixed seeds, and the rows of
# `go tool cover -func` at 0.0% are printed, the benchmark's own
# functions left out. A function with no statements (a no-op) always
# reads 0.0%. Tests are not entry points and are not run. Run it from
# anywhere in a checkout:
#
#   bash scripts/census.sh
#
# It uses only the Go toolchain and downloads nothing; binaries, coverage
# counters and the merged profile live in a temporary directory that is
# removed on exit.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$tmp/bin" "$tmp/cov"

build() { # build DIR NAME: DIR relative to the root; perfbench is its own module
	if [[ $1 == perfbench ]]; then
		go build -C "$root/perfbench" -cover -coverpkg=rjoin/... -o "$tmp/bin/$2" .
	else
		go build -C "$root" -cover -coverpkg=rjoin/... -o "$tmp/bin/$2" "./$1"
	fi
}
run() { # run NAME ARGS...: output is discarded, only the counters matter
	GOCOVERDIR="$tmp/cov" "$tmp/bin/$1" "${@:2}" >/dev/null
}

build cmd/rjoin-demo demo
run demo
run demo -lossy
run demo -explain
run demo -trace "$tmp/trace.json" -metrics-csv "$tmp/metrics.csv"
for d in "$root"/examples/*/; do
	name="$(basename "$d")"
	build "examples/$name" "ex-$name"
	run "ex-$name"
done
build cmd/rjoin-experiments experiments
run experiments -scale 0.02 -nodes 64 -queries 500 -csv "$tmp/csv"
build perfbench perfbench
for trace in 0 1; do
	run perfbench --catalog "$root/BENCHMARK.json" --seconds 0.01 --trace "$trace"
done

go tool covdata textfmt -i="$tmp/cov" -o "$tmp/profile.txt"
# perfbench is its own module, so only from there does cover resolve
# both it and the packages it builds on.
(cd "$root/perfbench" && go tool cover -func="$tmp/profile.txt") |
	awk '$NF == "0.0%" && $1 !~ /^rjoin\/perfbench\//' | sed "s|^rjoin/||"
